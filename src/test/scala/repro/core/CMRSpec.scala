package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.embed.Embed

class CMRSpec extends AnyFunSuite {

  private def rec(id: Long, ent: Long, text: String) =
    Record(id, ent, text, Embed.embed(text))

  private def hc(id: Long, members: Record*) =
    CMR.HCluster(id, members.toVector)

  private val a1 = rec(1, 10, "kamilu venqui belgan")
  private val a2 = rec(2, 10, "kamilu venqui belgan dor")
  private val b1 = rec(3, 20, "tosfir nolhex drapol")
  private val b2 = rec(4, 20, "tosfir nolhex drapol zen")
  private val c1 = rec(5, 30, "prazen quimar selro")

  /** The block's union-find: each test cluster's members start as one component. */
  private def ufOf(cs: CMR.HCluster*): UnionFind = {
    val uf = new UnionFind(cs.flatMap(_.members.map(_.id)))
    cs.foreach(c => c.members.foreach(r => uf.union(c.members.head.id, r.id)))
    uf
  }

  test("representative of a singleton cluster is its only member") {
    assert(hc(1, a1).rep == a1)
  }
  test("representative is the member closest to the mean embedding") {
    val far = rec(9, 10, "zzz unrelated words here")
    val cl  = CMR.HCluster(7, Vector(a1, a2, far))
    assert(Set(1L, 2L).contains(cl.rep.id)) // not the outlier
  }

  test("separations are symmetric and survive merges") {
    val x = hc(1, a1); val y = hc(2, b1); val z = hc(3, c1)
    val uf = ufOf(x, y, z)
    CMR.separate(uf, x, y)
    assert(CMR.separated(uf, x, y) && CMR.separated(uf, y, x))
    // A merge-descendant of x inherits the separation through the union,
    // whichever member names it.
    uf.union(c1.id, a1.id)
    val merged = CMR.HCluster(5, Vector(c1) ++ x.members)
    assert(CMR.separated(uf, merged, y) && CMR.separated(uf, y, merged))
  }
  test("unrelated clusters are not separated") {
    val uf = ufOf(hc(1, a1), hc(2, b1), hc(3, c1))
    CMR.separate(uf, hc(1, a1), hc(2, b1))
    assert(!CMR.separated(uf, hc(3, c1), hc(1, a1)))
  }

  test("nextRoundSets packs compatible clusters and never separated pairs") {
    val cs  = Vector(hc(1, a1), hc(2, a2), hc(3, b1), hc(4, b2))
    val uf  = ufOf(cs: _*)
    CMR.separate(uf, cs(0), cs(2)) // a1-cluster vs b1-cluster known different
    val (sets, left) = CMR.nextRoundSets(cs, uf, ERParams())
    sets.foreach { s =>
      for (i <- s.indices; j <- i + 1 until s.size)
        assert(!CMR.separated(uf, s(i), s(j)), s"separated pair packed: ${s(i).id},${s(j).id}")
    }
    assert((sets.flatten ++ left).map(_.id).sorted == Vector(1L, 2L, 3L, 4L))
  }
  test("nextRoundSets respects the set-size cap") {
    val many = (1 to 30).map(i => hc(i.toLong, rec(100 + i, i.toLong, s"text $i words ${i * 7}"))).toVector
    val (sets, _) = CMR.nextRoundSets(many, ufOf(many: _*), ERParams(setSize = 9))
    assert(sets.forall(_.size <= 9))
    assert(sets.forall(_.size >= 2))
  }
  test("fully separated clusters produce no sets, only leftovers") {
    val cs  = Vector(hc(1, a1), hc(2, b1), hc(3, c1))
    val uf  = ufOf(cs: _*)
    for (i <- cs.indices; j <- i + 1 until cs.size) CMR.separate(uf, cs(i), cs(j))
    val (sets, left) = CMR.nextRoundSets(cs, uf, ERParams())
    assert(sets.isEmpty)
    assert(left.map(_.id).sorted == Vector(1L, 2L, 3L))
  }

  test("applyAnswer merges co-clustered representatives") {
    val x = hc(1, a1); val y = hc(2, a2); val z = hc(3, b1)
    val uf = ufOf(x, y, z)
    val answer = Clustering(Vector(Vector(x.rep, y.rep), Vector(z.rep)))
    val out = CMR.applyAnswer(Vector(x, y, z), answer, uf, Set.empty)
    assert(out == Vector(Vector(x, y), Vector(z)))
    assert(uf.connected(a1.id, a2.id) && !uf.connected(a1.id, b1.id))
    val merged = hc(101, a1, a2)
    assert(CMR.separated(uf, merged, z) && CMR.separated(uf, x, z) && CMR.separated(uf, y, z))
  }
  test("applyAnswer records anti-transitivity between unmerged groups") {
    val x = hc(1, a1); val z = hc(3, b1)
    val uf = ufOf(x, z)
    val answer = Clustering(Vector(Vector(x.rep), Vector(z.rep)))
    assert(CMR.applyAnswer(Vector(x, z), answer, uf, Set.empty) == Vector(Vector(x), Vector(z)))
    assert(CMR.separated(uf, x, z))
    // A suspect singleton group carries no separation.
    val uf2 = ufOf(x, z)
    CMR.applyAnswer(Vector(x, z), answer, uf2, Set(z.rep.id))
    assert(!CMR.separated(uf2, x, z))
  }
  test("applyAnswer leaves singleton groups untouched") {
    val x = hc(1, a1)
    val out = CMR.applyAnswer(Vector(x), Clustering(Vector(Vector(x.rep))), ufOf(x), Set.empty)
    assert(out == Vector(Vector(x)))
  }
}
