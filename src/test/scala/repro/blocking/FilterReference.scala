package repro.blocking

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Record
import repro.embed.Embed

/** The Filter candidate generation that `Blocking.filterCandidates`
  * replaced, kept verbatim (token prefixes ranked by a window, prefix
  * self-join, `distinct`, join back to both texts, Jaccard UDF) as the
  * reference `FilterCandidatesSpec` holds it to: the same multiset of
  * (id_a, id_b, sim), bit for bit.
  */
object FilterReference {

  /** Candidate pairs via prefix-filtered token similarity join, scored
    * with token Jaccard.
    */
  def filterCandidates(spark: SparkSession, ds: Dataset[Record], bt: Double): DataFrame = {
    import spark.implicits._
    val toks = ds.flatMap(r => Embed.tokens(r.text).distinct.map(t => (r.id, t)))
      .toDF("id", "tok")
    // Global token frequency — rare tokens first gives small prefixes.
    val freq = toks.groupBy("tok").agg(count(lit(1)).as("df"))
    val ranked = toks.join(freq, "tok")
      .withColumn("rank", row_number().over(
        org.apache.spark.sql.expressions.Window.partitionBy("id").orderBy(col("df"), col("tok"))))
    val sizes = toks.groupBy("id").agg(count(lit(1)).as("ntok"))
    // Prefix size |x| - ceil(bt*|x|) + 1 guarantees no Jaccard>=bt pair is missed.
    val prefix = ranked.join(sizes, "id")
      .where(col("rank") <= col("ntok") - ceil(lit(bt) * col("ntok")) + 1)
      .select("id", "tok")
    val a = prefix.as("a"); val b = prefix.as("b")
    val cand = a.join(b, col("a.tok") === col("b.tok") && col("a.id") < col("b.id"))
      .select(col("a.id").as("id_a"), col("b.id").as("id_b")).distinct()
    val texts = ds.map(r => (r.id, r.text)).toDF("tid", "text")
    val jacUdf = udf { (x: String, y: String) => Embed.jaccard(x, y) }
    cand
      .join(texts, col("id_a") === col("tid")).withColumnRenamed("text", "text_a").drop("tid")
      .join(texts, col("id_b") === col("tid")).withColumnRenamed("text", "text_b").drop("tid")
      .withColumn("sim", jacUdf(col("text_a"), col("text_b")))
      .select("id_a", "id_b", "sim")
  }
}
