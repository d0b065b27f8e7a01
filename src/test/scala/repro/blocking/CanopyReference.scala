package repro.blocking

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Record
import repro.embed.Embed

/** The Canopy candidate generation that `Blocking.canopyCandidates`
  * replaced, kept verbatim (self-join on every first-attribute token,
  * `distinct`, join back to both records, one UDF per metric) as the
  * reference `FilterCandidatesSpec` holds it to: the same multiset of
  * (id_a, id_b, sim, cheap), bit for bit.
  */
object CanopyReference {

  /** Canopy blocking [McCallum et al.]: a cheap first-attribute token
    * overlap forms canopies (loose threshold ms) and tight blocks
    * (bs >= ms); within canopies a refined all-attribute Jaccard decides
    * matches which then merge blocks transitively.
    */
  def canopyCandidates(spark: SparkSession, ds: Dataset[Record],
                       bs: Double, ms: Double): DataFrame = {
    import spark.implicits._
    require(bs >= ms, s"canopy needs bs >= ms, got $bs < $ms")
    // Cheap metric: Jaccard over the first attribute's tokens only.
    val firstAttr = ds.map { r =>
      val first = r.text.split('|').head
      (r.id, Embed.tokens(first).distinct, r.text)
    }.toDF("id", "toks", "text")
    val expl = firstAttr.select(col("id"), explode(col("toks")).as("tok"))
    val a = expl.as("a"); val b = expl.as("b")
    val cand = a.join(b, col("a.tok") === col("b.tok") && col("a.id") < col("b.id"))
      .select(col("a.id").as("id_a"), col("b.id").as("id_b")).distinct()
    val jacUdf  = udf { (x: Seq[String], y: Seq[String]) => Embed.jaccard(x.toSet, y.toSet) }
    val fullJac = udf { (x: String, y: String) => Embed.jaccard(x, y) }
    val scored = cand
      .join(firstAttr.select(col("id").as("ia"), col("toks").as("toks_a"), col("text").as("text_a")), col("id_a") === col("ia"))
      .join(firstAttr.select(col("id").as("ib"), col("toks").as("toks_b"), col("text").as("text_b")), col("id_b") === col("ib"))
      .withColumn("cheap", jacUdf(col("toks_a"), col("toks_b")))
      .where(col("cheap") > ms) // canopy membership
      .withColumn("refined", fullJac(col("text_a"), col("text_b")))
      // An edge if tight-cheap OR refined match within the canopy.
      .withColumn("sim", greatest(col("cheap"), col("refined")))
      .select("id_a", "id_b", "sim", "cheap")
    scored
  }
}
