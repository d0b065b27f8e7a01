package repro.blocking

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.SparkSpec
import repro.core.Record
import repro.data.{DatasetProfile, ERGen}

class LSHCandidatesSpec extends SparkSpec {

  /** Candidate rows sorted by (id_a, id_b), sims as raw bits. */
  private def rows(df: DataFrame): Vector[(Long, Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1), java.lang.Double.doubleToRawLongBits(r.getDouble(2))))
      .toVector.sorted

  private def checkAgainstReference(profile: DatasetProfile): Unit = {
    val ds: Dataset[Record] = ERGen.records(spark, profile).cache()
    try {
      val expected = rows(LSHReference.lshCandidates(spark, ds))
      assert(expected.nonEmpty)
      for (parts <- Seq(1, 7)) {
        val got = rows(Blocking.lshCandidates(spark, ds.repartition(parts)))
        assert(got.map(p => (p._1, p._2)).distinct.size == got.size, s"duplicate pair, $parts partitions")
        assert(got.forall(p => p._1 < p._2), s"pair not ordered id_a < id_b, $parts partitions")
        assert(got == expected, s"candidates or sims differ from the reference, $parts partitions")
      }
    } finally ds.unpersist()
  }

  test("LSH candidates equal the join-based reference bit for bit on Citeseer-250") {
    checkAgainstReference(DatasetProfile.mini(DatasetProfile.citeseer, 250))
  }

  test("LSH candidates equal the join-based reference bit for bit on Alaska-600") {
    checkAgainstReference(DatasetProfile.mini(DatasetProfile.alaska, 600))
  }
}
