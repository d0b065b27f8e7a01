package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class MetricsSpec extends AnyFunSuite with PropSupport {

  private val perfect3: Metrics.Partition = Vector(Set(1L, 2L), Set(3L), Set(4L, 5L, 6L))

  // --- ACC -----------------------------------------------------------------
  test("ACC is 1.0 on a perfect clustering") {
    assert(Metrics.acc(perfect3, perfect3) == 1.0)
  }
  test("ACC of everything-in-one-cluster vs 3 entities counts only the largest match") {
    val pred = Vector(Set(1L, 2L, 3L, 4L, 5L, 6L))
    assert(Metrics.acc(pred, perfect3) == 3.0 / 6) // matched to {4,5,6}
  }
  test("ACC of all-singletons vs one entity matches exactly one record") {
    val truth = Vector(Set(1L, 2L, 3L, 4L))
    val pred  = truth.head.map(Set(_)).toVector
    assert(Metrics.acc(pred, truth) == 0.25)
  }
  test("ACC on a partial overlap example matches hand computation") {
    // pred {1,2,3},{4} vs truth {1,2},{3,4}: best matching pairs {1,2,3}->{1,2} (2), {4}->{3,4} (1)
    val pred  = Vector(Set(1L, 2L, 3L), Set(4L))
    val truth = Vector(Set(1L, 2L), Set(3L, 4L))
    assert(Metrics.acc(pred, truth) == 3.0 / 4)
  }
  test("ACC is symmetric under cluster reordering") {
    val pred = Vector(Set(4L, 5L, 6L), Set(3L), Set(1L, 2L))
    assert(Metrics.acc(pred, perfect3) == 1.0)
  }
  test("ACC of empty partitions is 0") {
    assert(Metrics.acc(Vector.empty, Vector.empty) == 0.0)
  }

  // --- purity / inverse purity / FP ---------------------------------------
  test("purity is 1.0 when every predicted cluster is a subset of a truth cluster") {
    val pred = Vector(Set(1L), Set(2L), Set(3L), Set(4L, 5L), Set(6L))
    assert(math.abs(Metrics.purity(pred, perfect3) - 1.0) < 1e-12)
  }
  test("inverse purity is 1.0 when every truth cluster is a subset of a predicted cluster") {
    val pred = Vector(Set(1L, 2L, 3L, 4L, 5L, 6L))
    assert(math.abs(Metrics.inversePurity(pred, perfect3) - 1.0) < 1e-12)
  }
  test("FP-measure is 1.0 only on the exact partition") {
    assert(math.abs(Metrics.fpMeasure(perfect3, perfect3) - 1.0) < 1e-12)
    val allOne = Vector(Set(1L, 2L, 3L, 4L, 5L, 6L))
    assert(Metrics.fpMeasure(allOne, perfect3) < 1.0)
  }
  test("FP-measure on the paper-style merged example matches hand computation") {
    // pred {1,2,3,4} vs truth {1,2},{3,4}:
    // purity = 4/4 * max(2/4, 2/4) = 0.5 ; inverse purity = 1.0 ; FP = 2/(1/.5 + 1) = 2/3
    val pred  = Vector(Set(1L, 2L, 3L, 4L))
    val truth = Vector(Set(1L, 2L), Set(3L, 4L))
    assert(math.abs(Metrics.fpMeasure(pred, truth) - 2.0 / 3) < 1e-12)
  }
  test("FP-measure penalises over-splitting") {
    val split = perfect3.flatMap(_.map(Set(_)))
    assert(Metrics.fpMeasure(split, perfect3) < Metrics.fpMeasure(perfect3, perfect3))
  }

  // --- NMI -----------------------------------------------------------------
  test("NMI is 1.0 on identical partitions") {
    assert(math.abs(Metrics.nmi(perfect3, perfect3) - 1.0) < 1e-9)
  }
  test("NMI of independent split halves is below 1") {
    val truth = Vector(Set(1L, 2L), Set(3L, 4L))
    val pred  = Vector(Set(1L, 3L), Set(2L, 4L))
    assert(Metrics.nmi(pred, truth) < 0.01)
  }
  test("NMI handles the single-cluster-vs-single-cluster case") {
    val one = Vector(Set(1L, 2L, 3L))
    assert(Metrics.nmi(one, one) == 1.0)
  }

  // --- ARI -----------------------------------------------------------------
  test("ARI is 1.0 on identical partitions") {
    assert(math.abs(Metrics.ari(perfect3, perfect3) - 1.0) < 1e-9)
  }
  test("ARI is near 0 for a random-like disagreement") {
    val truth = Vector(Set(1L, 2L), Set(3L, 4L))
    val pred  = Vector(Set(1L, 3L), Set(2L, 4L))
    assert(Metrics.ari(pred, truth) <= 0.0 + 1e-9)
  }
  test("ARI of all-singletons vs all-in-one is 0") {
    val truth = Vector(Set(1L, 2L, 3L, 4L))
    val pred  = Vector(Set(1L), Set(2L), Set(3L), Set(4L))
    assert(math.abs(Metrics.ari(pred, truth)) < 1e-9)
  }

  // --- variation (Eq. 1) ---------------------------------------------------
  test("variation of equal cluster sizes is 0 (paper Example 3)") {
    assert(Metrics.variation(Seq(3, 3, 3)) == 0.0)
  }
  test("variation of a skewed composition matches hand computation") {
    // sizes (6,1,1,1): mu=2.25, sigma=sqrt((14.0625+3*1.5625)/4)=2.165..
    val v = Metrics.variation(Seq(6, 1, 1, 1))
    assert(math.abs(v - math.sqrt((3.75 * 3.75 + 3 * 1.25 * 1.25) / 4) / 2.25) < 1e-9)
  }
  test("variation of empty and single-cluster inputs") {
    assert(Metrics.variation(Seq.empty) == 0.0)
    assert(Metrics.variation(Seq(5)) == 0.0)
  }

  // --- truthOf -------------------------------------------------------------
  test("truthOf groups record ids by entity") {
    val t = Metrics.truthOf(Seq((1L, 10L), (2L, 10L), (3L, 11L)))
    assert(t.toSet == Set(Set(1L, 2L), Set(3L)))
  }

  // --- properties ----------------------------------------------------------
  private val partitionGen: Gen[(Metrics.Partition, Metrics.Partition)] = for {
    n     <- Gen.choose(2, 24)
    kx    <- Gen.choose(1, n)
    ky    <- Gen.choose(1, n)
    xs    <- Gen.listOfN(n, Gen.choose(0, kx - 1))
    ys    <- Gen.listOfN(n, Gen.choose(0, ky - 1))
  } yield {
    val ids = (1L to n.toLong).toVector
    def part(ls: List[Int]) =
      ids.zip(ls).groupBy(_._2).values.map(_.map(_._1).toSet).toVector
    (part(xs), part(ys))
  }

  test("property: all metrics are bounded and 1.0 on self") {
    checkProp(Prop.forAll(partitionGen) { case (x, y) =>
      val acc = Metrics.acc(x, y)
      val fp  = Metrics.fpMeasure(x, y)
      val nmi = Metrics.nmi(x, y)
      acc >= 0 && acc <= 1 + 1e-9 &&
        fp >= 0 && fp <= 1 + 1e-9 &&
        nmi >= -1e-9 && nmi <= 1 + 1e-9 &&
        Metrics.ari(x, y) <= 1 + 1e-9 &&
        math.abs(Metrics.fpMeasure(x, x) - 1.0) < 1e-9 &&
        Metrics.acc(x, x) == 1.0
    })
  }

  test("property: FP-measure is symmetric in its arguments") {
    checkProp(Prop.forAll(partitionGen) { case (x, y) =>
      math.abs(Metrics.fpMeasure(x, y) - Metrics.fpMeasure(y, x)) < 1e-9
    })
  }

  test("property: NMI and ARI are symmetric in their arguments") {
    checkProp(Prop.forAll(partitionGen) { case (x, y) =>
      math.abs(Metrics.nmi(x, y) - Metrics.nmi(y, x)) < 1e-9 &&
        math.abs(Metrics.ari(x, y) - Metrics.ari(y, x)) < 1e-9
    })
  }

  /** Two partitions over id universes that may differ or be empty: each
    * id of 1..n lands in x, in y, or in both, and a side may hold an
    * empty cluster.
    */
  private val looseGen: Gen[(Metrics.Partition, Metrics.Partition)] = for {
    n     <- Gen.choose(0, 30)
    kx    <- Gen.choose(1, 8)
    ky    <- Gen.choose(1, 8)
    sides <- Gen.listOfN(n, Gen.frequency(4 -> 3, 1 -> 1, 1 -> 2, 1 -> 0))
    xs    <- Gen.listOfN(n, Gen.choose(0, kx - 1))
    ys    <- Gen.listOfN(n, Gen.choose(0, ky - 1))
    xEmpty <- Gen.frequency(5 -> false, 1 -> true)
    yEmpty <- Gen.frequency(5 -> false, 1 -> true)
  } yield {
    // side bit 1: the id is in x; bit 2: in y.
    def part(bit: Int, ls: List[Int], withEmpty: Boolean): Metrics.Partition = {
      val in = (1L to n.toLong).zip(ls).zip(sides).collect { case ((id, c), s) if (s & bit) != 0 => (id, c) }
      in.groupBy(_._2).toVector.sortBy(_._1).map(_._2.map(_._1).toSet) ++
        (if (withEmpty) Vector(Set.empty[Long]) else Vector.empty)
    }
    (part(1, xs, xEmpty), part(2, ys, yEmpty))
  }

  private def same(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b)

  test("property: ACC, purity, inverse purity, FP, NMI and ARI equal the reference bit for bit") {
    val gen = Gen.frequency(1 -> partitionGen, 2 -> looseGen)
    checkProp(Prop.forAllNoShrink(gen) { case (x, y) =>
      same(Metrics.acc(x, y), MetricsReference.acc(x, y)) &&
        same(Metrics.purity(x, y), MetricsReference.purity(x, y)) &&
        same(Metrics.inversePurity(x, y), MetricsReference.inversePurity(x, y)) &&
        same(Metrics.fpMeasure(x, y), MetricsReference.fpMeasure(x, y)) &&
        same(Metrics.nmi(x, y), MetricsReference.nmi(x, y)) &&
        same(Metrics.ari(x, y), MetricsReference.ari(x, y))
    }, minTests = 1000)
  }
}
