package repro.blocking

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.SparkSpec
import repro.core.Record
import repro.data.{DatasetProfile, ERGen}
import repro.embed.Embed

class FilterCandidatesSpec extends SparkSpec {

  /** Candidate rows sorted, with (id_a, id_b) and every score as raw bits. */
  private def rows(df: DataFrame): Vector[List[Long]] =
    df.collect().map(_.toSeq.toList.map {
      case d: Double => java.lang.Double.doubleToRawLongBits(d)
      case l: Long   => l
    }).toVector.sortBy(r => (r(0), r(1)))

  private def withShufflePartitions[T](n: Int)(body: => T): T = {
    val key = "spark.sql.shuffle.partitions"
    val old = spark.conf.get(key)
    spark.conf.set(key, n.toLong)
    try body finally spark.conf.set(key, old)
  }

  /** Every (input partitions, shuffle partitions) pair of 1 or 7 and 1 or 64. */
  private val allLayouts = for (parts <- Seq(1, 7); shuffle <- Seq(1, 64)) yield (parts, shuffle)

  /** `candidates` equals `reference` under each of `layouts`, and yields
    * each ordered pair once.
    */
  private def checkAgainst(ds: Dataset[Record], what: String, layouts: Seq[(Int, Int)] = allLayouts)(
      reference: Dataset[Record] => DataFrame, candidates: Dataset[Record] => DataFrame): Unit = {
    val expected = rows(reference(ds))
    assert(expected.nonEmpty, s"no reference candidates, $what")
    for ((parts, shuffle) <- layouts) {
      val got = withShufflePartitions(shuffle)(rows(candidates(ds.repartition(parts))))
      val at  = s"$what, $parts input / $shuffle shuffle partitions"
      assert(got.map(_.take(2)).distinct.size == got.size, s"duplicate pair, $at")
      assert(got.forall(r => r(0) < r(1)), s"pair not ordered id_a < id_b, $at")
      assert(got == expected, s"candidates or scores differ from the reference, $at")
    }
  }

  private def checkFilter(profile: DatasetProfile): Unit = {
    val ds = ERGen.records(spark, profile).cache()
    try for (bt <- Seq(0.05, 0.25, 0.5, 0.95))
      checkAgainst(ds, s"bt=$bt")(FilterReference.filterCandidates(spark, _, bt),
                                  Blocking.filterCandidates(spark, _, bt))
    finally ds.unpersist()
  }

  test("Filter candidates equal the join-based reference bit for bit on Citeseer-250") {
    checkFilter(DatasetProfile.mini(DatasetProfile.citeseer, 250))
  }

  test("Filter candidates equal the join-based reference bit for bit on AS-600") {
    checkFilter(DatasetProfile.mini(DatasetProfile.as, 600))
  }

  test("Canopy candidates equal the join-based reference bit for bit on Alaska-600") {
    val ds = ERGen.records(spark, DatasetProfile.mini(DatasetProfile.alaska, 600)).cache()
    try for ((bs, ms) <- Seq((0.4, 0.1), (0.8, 0.5), (0.95, 0.8)))
      checkAgainst(ds, s"bs=$bs ms=$ms")(CanopyReference.canopyCandidates(spark, _, bs, ms),
                                         Blocking.canopyCandidates(spark, _, ms))
    finally ds.unpersist()
  }

  test("Filter and Canopy agree with the references on empty and repeated tokens") {
    import spark.implicits._
    val texts = Seq("", "!!! --- ???", "alpha alpha beta", "beta alpha ALPHA beta",
                    "alpha | beta gamma", "alpha beta | gamma gamma", "| alpha beta", "gamma",
                    "delta delta delta", "delta | delta")
    val ds = texts.zipWithIndex.map { case (t, i) => Record(i.toLong, i.toLong, t, Embed.embed(t)) }.toDS()
    for (t <- Seq(0.05, 0.5, 0.95)) {
      checkAgainst(ds, s"filter bt=$t", Seq((3, 64)))(FilterReference.filterCandidates(spark, _, t),
                                                      Blocking.filterCandidates(spark, _, t))
      checkAgainst(ds, s"canopy ms=$t", Seq((3, 64)))(CanopyReference.canopyCandidates(spark, _, 0.95, t),
                                                      Blocking.canopyCandidates(spark, _, t))
    }
  }
}
