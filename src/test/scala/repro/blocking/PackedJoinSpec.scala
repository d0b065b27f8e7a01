package repro.blocking

import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.data.{DatasetProfile, ERGen}

class PackedJoinSpec extends SparkSpec with PropSupport {

  test("componentsCapped equals the tuple-sorting reference on random edge lists with tied sims") {
    // Sparse ids, and a small grid of sims (both zeros among them) so that
    // the (-sim, a, b) order decides between many equal sims.
    val ids  = Gen.choose(1, 40).flatMap(n => Gen.listOfN(n, Gen.choose(-1000000L, 1000000L))).map(_.distinct.toVector)
    val sim  = Gen.oneOf(-0.5, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0)
    val case_ = for {
      all   <- ids
      m     <- Gen.choose(0, 3 * all.size)
      edges <- Gen.listOfN(m, Gen.zip(Gen.oneOf(all), Gen.oneOf(all), sim))
      cap   <- Gen.oneOf(1, 2, 3, 60, Int.MaxValue)
    } yield (all, edges.toVector, cap)
    checkProp(Prop.forAllNoShrink(case_) { case (all, edges, cap) =>
      Blocking.componentsCapped(all, edges, cap) == ComponentsReference.componentsCapped(all, edges, cap)
    }, minTests = 300)
  }

  /** Edges sorted by ids, sims as raw bits: their multiset. */
  private def bits(edges: Seq[(Long, Long, Double)]): Vector[(Long, Long, Long)] =
    edges.map { case (a, b, s) => (a, b, java.lang.Double.doubleToRawLongBits(s)) }.toVector.sorted

  test("edges do not depend on the reduce or the input partition count") {
    for (profile <- Seq(DatasetProfile.mini(DatasetProfile.alaska, 600), DatasetProfile.mini(DatasetProfile.citeseer, 250))) {
      val data = ERGen.records(spark, profile).cache()
      try for (strategy <- Seq(Blocking.LSH, Blocking.Filter, Blocking.Canopy)) {
        val expected = bits(Blocking.edges(spark, data, strategy, 0.35))
        assert(expected.nonEmpty, s"no edges, ${profile.name} ${strategy.name}")
        for (parts <- Seq(1, 7); reducers <- Seq(1, 3, 8)) {
          val got = bits(Blocking.edges(spark, data.repartition(parts), strategy, 0.35, reducers))
          assert(got == expected, s"${profile.name} ${strategy.name}, $parts input / $reducers reduce partitions")
        }
      }
      finally data.unpersist()
    }
  }
}
