package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class UnionFindSpec extends AnyFunSuite with PropSupport {

  test("fresh elements are their own components") {
    val uf = new UnionFind(Seq(1L, 2L, 3L))
    assert(uf.find(1L) == 1L)
    assert(!uf.connected(1L, 2L))
    assert(uf.partition.size == 3)
  }

  test("union connects transitively") {
    val uf = new UnionFind(1L to 5L)
    uf.union(1, 2); uf.union(2, 3)
    assert(uf.connected(1, 3))
    assert(!uf.connected(1, 4))
    assert(uf.partition.map(_.size).sorted == Vector(1, 1, 3))
  }

  test("union is idempotent") {
    val uf = new UnionFind(Seq(1L, 2L))
    uf.union(1, 2); uf.union(1, 2); uf.union(2, 1)
    assert(uf.partition == Vector(Set(1L, 2L)))
  }

  test("partition covers exactly the initial ids") {
    val uf = new UnionFind(1L to 10L)
    uf.union(1, 5); uf.union(7, 9)
    assert(uf.partition.flatten.toSet == (1L to 10L).toSet)
  }

  test("chain of unions yields one component") {
    val uf = new UnionFind(1L to 100L)
    (1L until 100L).foreach(i => uf.union(i, i + 1))
    assert(uf.partition.size == 1)
  }

  test("property: components equal reference partition of random union sequences") {
    val gen = for {
      n     <- Gen.choose(2, 30)
      edges <- Gen.listOf(Gen.zip(Gen.choose(1, n), Gen.choose(1, n)))
    } yield (n, edges)
    checkProp(Prop.forAll(gen) { case (n, edges) =>
      val uf = new UnionFind((1 to n).map(_.toLong))
      edges.foreach { case (a, b) => uf.union(a.toLong, b.toLong) }
      // Reference: repeated closure over edge list.
      var part = (1 to n).map(i => Set(i.toLong)).toVector
      edges.foreach { case (a, b) =>
        val ca = part.find(_.contains(a.toLong)).get
        val cb = part.find(_.contains(b.toLong)).get
        if (ca != cb) part = part.filterNot(c => c == ca || c == cb) :+ (ca ++ cb)
      }
      uf.partition.map(_.toSeq.sorted).sortBy(_.head) ==
        part.map(_.toSeq.sorted).sortBy(_.head)
    })
  }

  test("BQ in-batch order: separate, then union of the same components") {
    val uf = new UnionFind(1L to 4L)
    uf.separate(1, 2); uf.separate(2, 3)
    uf.union(1, 2)
    assert(uf.connected(1, 2) && !uf.separated(1, 2))
    assert(uf.separated(1, 3)) // 2's other separation moves to the merged component
  }

  test("BQ in-batch order: union, then separate within one component") {
    val uf = new UnionFind(1L to 4L)
    uf.union(1, 2)
    uf.separate(1, 2) // one component: a no-op
    assert(uf.connected(1, 2) && !uf.separated(1, 2))
    uf.union(2, 3)
    assert(!uf.separated(1, 3) && !uf.separated(3, 4))
  }

  test("property: union/separate sequences match a pair-set reference") {
    // An op is (isUnion, a, b).
    val gen = for {
      n   <- Gen.choose(2, 12)
      ops <- Gen.listOf(Gen.zip(Gen.oneOf(true, false), Gen.choose(1, n), Gen.choose(1, n)))
    } yield (n, ops)
    checkProp(Prop.forAllNoShrink(gen) { case (n, ops) =>
      val uf = new UnionFind((1 to n).map(_.toLong))
      // Reference: component labels plus every recorded pair; (a, b) are
      // separated when they are apart and some recorded pair spans their
      // two components.
      val comp  = Array.tabulate(n + 1)(identity)
      var pairs = List.empty[(Int, Int)]
      def refSeparated(a: Int, b: Int): Boolean =
        comp(a) != comp(b) && pairs.exists { case (x, y) =>
          (comp(x) == comp(a) && comp(y) == comp(b)) || (comp(x) == comp(b) && comp(y) == comp(a))
        }
      ops.forall { case (isUnion, a, b) =>
        if (isUnion) {
          uf.union(a.toLong, b.toLong)
          val (from, to) = (comp(b), comp(a))
          for (i <- 1 to n if comp(i) == from) comp(i) = to
        } else {
          uf.separate(a.toLong, b.toLong)
          pairs ::= ((a, b))
        }
        (for (x <- 1 to n; y <- 1 to n) yield (x, y)).forall { case (x, y) =>
          uf.connected(x.toLong, y.toLong) == (comp(x) == comp(y)) &&
            uf.separated(x.toLong, y.toLong) == refSeparated(x, y)
        }
      }
    })
  }
}
