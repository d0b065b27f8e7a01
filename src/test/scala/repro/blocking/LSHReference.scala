package repro.blocking

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Record
import repro.embed.Embed

/** The LSH candidate generation that `Blocking.lshCandidates` replaced,
  * kept verbatim (self-join on (band, sig), `distinct`, join back to both
  * vectors, boxed `Seq[Float]` cosine UDF) as the reference
  * `LSHCandidatesSpec` holds it to: the same multiset of
  * (id_a, id_b, sim), bit for bit.
  */
object LSHReference {

  /** Candidate pairs (id_a < id_b) with cosine similarity, via
    * random-hyperplane LSH banding over the record embeddings.
    */
  def lshCandidates(spark: SparkSession, ds: Dataset[Record],
                    bands: Int = 8, bits: Int = 8, seed: Long = 7L): DataFrame = {
    import spark.implicits._
    val dim = Embed.Dim
    // Deterministic hyperplanes: bands*bits vectors of N(0,1)-ish values.
    val planes: Array[Array[Float]] = {
      val rnd = new scala.util.Random(seed)
      Array.fill(bands * bits)(Array.fill(dim)((rnd.nextGaussian()).toFloat))
    }
    val bc = spark.sparkContext.broadcast(planes)
    val sigs = ds.flatMap { r =>
      val ps = bc.value
      (0 until bands).map { b =>
        var sig = 0L
        var k = 0
        while (k < bits) {
          var s = 0.0; var d = 0
          val p = ps(b * bits + k)
          while (d < dim) { s += p(d) * r.vec(d); d += 1 }
          if (s >= 0) sig |= (1L << k)
          k += 1
        }
        (b, sig, r.id)
      }
    }.toDF("band", "sig", "id")
    val a = sigs.as("a"); val b = sigs.as("b")
    val pairs = a.join(b,
        col("a.band") === col("b.band") && col("a.sig") === col("b.sig") &&
        col("a.id") < col("b.id"))
      .select(col("a.id").as("id_a"), col("b.id").as("id_b"))
      .distinct()
    withCosine(spark, ds, pairs)
  }

  /** Join candidate pairs back to embeddings and score with cosine. */
  private def withCosine(spark: SparkSession, ds: Dataset[Record], pairs: DataFrame): DataFrame = {
    import spark.implicits._
    val vecs = ds.map(r => (r.id, r.vec)).toDF("vid", "vec")
    val cosUdf = udf { (a: Seq[Float], b: Seq[Float]) =>
      var s = 0.0; var i = 0
      while (i < a.length) { s += a(i) * b(i); i += 1 }
      s
    }
    pairs
      .join(vecs, col("id_a") === col("vid")).withColumnRenamed("vec", "vec_a").drop("vid")
      .join(vecs, col("id_b") === col("vid")).withColumnRenamed("vec", "vec_b").drop("vid")
      .withColumn("sim", cosUdf(col("vec_a"), col("vec_b")))
      .select("id_a", "id_b", "sim")
  }
}
