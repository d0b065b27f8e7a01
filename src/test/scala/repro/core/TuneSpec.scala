package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.blocking.Blocking
import repro.data.{DatasetProfile, ERGen}

class TuneSpec extends SparkSpec with PropSupport {

  private def bits(d: Double) = java.lang.Double.doubleToRawLongBits(d)

  /** The sweep's grid, k * 0.05 for k = 0..20, as the tuner computes it. */
  private val grid = (0 to 20).map(_ * 0.05)

  /** A similarity near the grid: on it, one ulp either side, or uniform in
    * [0, 1); NaN too when `nan`. With a `focus` k, every draw is g(k) or
    * one ulp either side of it, or a neighbouring grid value, so that the
    * bucket of a value next to the grid decides the threshold.
    */
  private def draw(rnd: scala.util.Random, nan: Boolean, focus: Option[Int]): Double = {
    def near = focus.fold(rnd.nextInt(grid.size))(identity)
    rnd.nextInt(if (nan) 8 else 7) match {
      case 0 | 1 => grid(near)
      case 2     => grid(focus.fold(rnd.nextInt(grid.size))(k => math.max(0, math.min(20, k + rnd.nextInt(3) - 1))))
      case 3     => Math.nextUp(grid(near))
      case 4     => Math.nextDown(grid(near))
      case 5 | 6 => if (focus.isEmpty) rnd.nextDouble() else Math.nextDown(grid(near))
      case _     => Double.NaN
    }
  }

  /** `n` records of 0–6 entities and a table of drawn similarities, read
    * in argument order (sim(a, b) need not equal sim(b, a)); half the
    * tables focus on one grid value.
    */
  private def sample(n: Int, seed: Long, nan: Boolean): (Vector[Record], (Record, Record) => Double) = {
    val rnd   = new scala.util.Random(seed)
    val ents  = rnd.nextInt(7)
    val focus = if (rnd.nextBoolean()) Some(rnd.nextInt(grid.size)) else None
    val recs  = Vector.tabulate(n)(i => Record(i.toLong, rnd.nextInt(ents + 1).toLong, "", Array.emptyFloatArray))
    val table = Array.fill(n * n)(draw(rnd, nan, focus))
    (recs, (a, b) => table((a.id * n + b.id).toInt))
  }

  /** Sample sizes: small ones, and those around the row chunks' edges. */
  private val size = Gen.frequency(3 -> Gen.choose(0, 40), 1 -> Gen.oneOf(0, 1, 2, 17))

  test("tuneThreshold equals the sort-based reference bit for bit, on and next to the grid") {
    checkProp(Prop.forAllNoShrink(size, Gen.long) { (n, seed) =>
      val (recs, sim) = sample(n, seed, nan = true)
      bits(LLMCER.tuneThreshold(recs, sim)) == bits(TuneReference.tuneThreshold(recs, sim))
    }, minTests = 600)
    for (seed <- 1L to 3L) {
      val (recs, sim) = sample(600, seed, nan = true)
      assert(bits(LLMCER.tuneThreshold(recs, sim)) == bits(TuneReference.tuneThreshold(recs, sim)), s"600, seed $seed")
    }
  }

  test("the same-entity floor equals the pair-loop reference bit for bit") {
    checkProp(Prop.forAllNoShrink(size, Gen.long) { (n, seed) =>
      val (recs, sim) = sample(n, seed, nan = false)
      bits(LLMCER.floorOf(recs, sim)) == bits(TuneReference.floor(recs, sim))
    }, minTests = 300)
    for (seed <- 1L to 3L) {
      val (recs, sim) = sample(600, seed, nan = false)
      assert(bits(LLMCER.floorOf(recs, sim)) == bits(TuneReference.floor(recs, sim)), s"600, seed $seed")
    }
  }

  test("tunedThreshold and tunedFloor equal the reference on generated data, cosine and Jaccard") {
    for (profile <- Seq(DatasetProfile.mini(DatasetProfile.alaska, 600), DatasetProfile.mini(DatasetProfile.as, 600),
                        DatasetProfile.mini(DatasetProfile.citeseer, 250))) {
      val ds = ERGen.records(spark, profile).cache()
      try for (strategy <- Seq(Blocking.LSH, Blocking.Filter)) {
        val at = s"${profile.name} ${strategy.name}"
        assert(bits(LLMCER.tunedThreshold(ds, strategy)) == bits(TuneReference.tunedThreshold(ds, strategy)), at)
        assert(bits(LLMCER.tunedFloor(ds, strategy)) == bits(TuneReference.tunedFloor(ds, strategy)), at)
      }
      finally ds.unpersist()
    }
  }
}
