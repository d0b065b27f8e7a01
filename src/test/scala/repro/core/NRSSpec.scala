package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.data.{DatasetProfile, ERGen}

class NRSSpec extends AnyFunSuite with PropSupport {

  private val recs = ERGen.recordsLocal(DatasetProfile.mini(DatasetProfile.citeseer, 200))
  private val p    = ERParams()

  test("orderSequentially is a permutation of the input") {
    val in  = recs.take(12)
    val out = NRS.orderSequentially(in)
    assert(out.map(_.id).sorted == in.map(_.id).sorted)
  }
  test("orderSequentially handles empty and singleton input") {
    assert(NRS.orderSequentially(Vector.empty).isEmpty)
    assert(NRS.orderSequentially(recs.take(1)) == recs.take(1))
  }
  test("orderSequentially places same-entity records adjacently more often than input order") {
    val byEnt = recs.groupBy(_.entityId).values.filter(_.size >= 2).take(4).toVector
    // Interleave entities so the input order is maximally scattered.
    val interleaved = byEnt.flatMap(_.take(2)).toVector
    val scattered   = interleaved.indices.sortBy(_ % 2).map(interleaved).toVector
    def adjacency(v: Vector[Record]): Int =
      v.sliding(2).count { case Vector(a, b) => a.entityId == b.entityId; case _ => false }
    assert(adjacency(NRS.orderSequentially(scattered)) >= adjacency(scattered))
  }

  test("nextSet returns a set of exactly Ss records when enough remain") {
    val (set, rest) = NRS.nextSet(recs.take(40), p)
    assert(set.size == p.setSize)
    assert(rest.size == 40 - p.setSize)
    assert((set ++ rest).map(_.id).sorted == recs.take(40).map(_.id).sorted)
  }
  test("nextSet returns all records when fewer than Ss remain") {
    val (set, rest) = NRS.nextSet(recs.take(5), p)
    assert(set.size == 5)
    assert(rest.isEmpty)
  }
  test("nextSet rejects empty input") {
    intercept[IllegalArgumentException] { NRS.nextSet(Vector.empty, p) }
  }

  test("allSets partitions the whole block into sets of at most Ss") {
    val block = recs.take(50)
    val sets  = NRS.allSets(block, p)
    assert(sets.flatten.map(_.id).sorted == block.map(_.id).sorted)
    assert(sets.forall(_.size <= p.setSize))
    assert(sets.count(_.size < p.setSize) <= 1) // only the remainder set is short
  }
  test("allSets set count is ceil(block/Ss) or slightly more") {
    val block = recs.take(45)
    val sets  = NRS.allSets(block, p)
    assert(sets.size == 5)
  }
  test("allSets is deterministic") {
    val block = recs.take(30)
    assert(NRS.allSets(block, p).map(_.map(_.id)) == NRS.allSets(block, p).map(_.map(_.id)))
  }
  test("sets drawn from an entity-diverse block tend toward balanced entity representation") {
    val byEnt = recs.groupBy(_.entityId).values.filter(_.size >= 3).take(4).toVector
    val block = byEnt.flatMap(_.take(5)).toVector
    val (set, _) = NRS.nextSet(block, p)
    val sv = Metrics.variation(set.groupBy(_.entityId).values.map(_.size).toSeq)
    assert(sv < 1.0, s"set variation unexpectedly high: $sv")
  }

  private def ids(sets: Vector[Vector[Record]]): Vector[Vector[Long]] = sets.map(_.map(_.id))

  test("allSets equals the reference on random blocks with duplicate vectors and ties") {
    val blocks = Gen.frequency(1 -> Gen.choose(0, 12), 4 -> Gen.choose(13, 60))
      .flatMap(KMeansSpec.records)
    val params = for {
      ss   <- Gen.choose(2, 12)
      sd   <- Gen.choose(1, 6)
      seed <- Gen.long
    } yield ERParams(setSize = ss, setDiversity = sd, seed = seed)
    val prop = Prop.forAllNoShrink(blocks, params) { (block, p) =>
      val got  = ids(NRS.allSets(block, p))
      val want = ids(NRSReference.allSets(block, p))
      Prop(got == want) :| s"$p: $got vs reference $want"
    }
    checkProp(prop, minTests = 200)
  }

  test("allSets equals the reference on the full 1,290-record Cora block") {
    // `NoBlocking` resolves the whole dataset as this one block, sorted by id.
    val block = ERGen.recordsLocal(DatasetProfile.cora).sortBy(_.id)
    assert(block.size == 1290)
    assert(ids(NRS.allSets(block, p)) == ids(NRSReference.allSets(block, p)))
  }
}
