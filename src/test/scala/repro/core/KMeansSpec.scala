package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.data.{DatasetProfile, ERGen}
import repro.embed.Embed
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._

/** `KMeans` must reproduce `KMeansReference` (the original boxed
  * implementation) exactly: same k, same groups in the same order. The
  * arithmetic order is part of the determinism contract, so any
  * difference here changes NRS's record sets and every output after them.
  */
class KMeansSpec extends AnyFunSuite with PropSupport {

  private def ids(clusters: Vector[Vector[Record]]): Vector[Vector[Long]] = clusters.map(_.map(_.id))

  private def agreesWithReference(recs: Vector[Record], k: Int, maxK: Int, seed: Long): Prop = {
    val got      = KMeans.elbow(recs, maxK, seed)
    val refK     = KMeansReference.elbowK(recs, maxK, seed)
    val clusterK = ids(KMeans.cluster(recs, k, seed))
    val refClusterK = ids(KMeansReference.cluster(recs, k, seed))
    Prop(got.k == refK) :| s"elbow k ${got.k} vs reference $refK" &&
    Prop(ids(got.clusters) == ids(KMeansReference.cluster(recs, refK, seed))) :| "elbow clusters" &&
    Prop(clusterK == refClusterK) :| s"cluster(k=$k): $clusterK vs reference $refClusterK"
  }

  private val recordSets: Gen[Vector[Record]] =
    Gen.frequency(1 -> Gen.choose(0, 2), 6 -> Gen.choose(3, 14), 1 -> Gen.choose(15, 40))
      .flatMap(KMeansSpec.records)

  test("cluster and elbow equal the reference on random record sets") {
    val prop = Prop.forAllNoShrink(recordSets, Gen.choose(1, 12), Gen.choose(0, 12), Gen.long) {
      (recs, k, maxK, seed) => agreesWithReference(recs, k, maxK, seed)
    }
    checkProp(prop, minTests = 500)
  }

  test("elbow equals the reference on every step of a Cora mini nextSet sequence") {
    val p = ERParams.default
    var remain = ERGen.recordsLocal(DatasetProfile.mini(DatasetProfile.cora, 300)).sortBy(_.id)
    var steps = 0
    while (remain.size > p.setSize) {
      val maxK = math.min(p.setSize, 8)
      val got  = KMeans.elbow(remain, maxK, p.seed)
      val refK = KMeansReference.elbowK(remain, maxK, p.seed)
      assert(got.k == refK, s"step $steps")
      assert(ids(got.clusters) == ids(KMeansReference.cluster(remain, refK, p.seed)), s"step $steps")
      remain = NRS.nextSet(remain, p)._2
      steps += 1
    }
    assert(steps == 33)
  }

  test("elbow called from four threads at once equals the reference for each caller") {
    // Four Spark tasks resolving blocks at once share the one common pool.
    val cora = ERGen.recordsLocal(DatasetProfile.mini(DatasetProfile.cora, 300)).sortBy(_.id)
    val sets = Vector.tabulate(8)(i => cora.drop(i * 30))
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
      val got = Await.result(Future.traverse(sets)(s => Future(KMeans.elbow(s, 8, 42L))), 5.minutes)
      got.zip(sets).zipWithIndex.foreach { case ((e, s), i) =>
        val refK = KMeansReference.elbowK(s, 8, 42L)
        assert(e.k == refK, s"set $i")
        assert(ids(e.clusters) == ids(KMeansReference.cluster(s, refK, 42L)), s"set $i")
      }
    } finally pool.shutdown()
  }

  test("parallel returns results in job order and rethrows a job's exception unwrapped") {
    assert(KMeans.parallel(Vector.tabulate(6)(i => () => i * i)) == Vector(0, 1, 4, 9, 16, 25))
    // The caller starts with the last job, which waits until a pool thread
    // has thrown from the first.
    val boom   = new IllegalStateException("pooled run failed")
    val thrown = new java.util.concurrent.CountDownLatch(1)
    @volatile var thrower: Thread = null
    val jobs = Vector[() => Int](
      () => { thrower = Thread.currentThread(); thrown.countDown(); throw boom },
      () => 1,
      () => { thrown.await(10, java.util.concurrent.TimeUnit.SECONDS); 2 })
    val e = intercept[IllegalStateException](KMeans.parallel(jobs))
    assert(e eq boom)
    assert(thrower != Thread.currentThread())
  }
}

object KMeansSpec {

  private val dim = Embed.Dim

  /** Vectors that make ties and near-ties likely: exact duplicates, all
    * zeros, constant vectors, cyclic shifts, and entries whose magnitudes
    * span so many binary orders that a double sum of their products
    * rounds. A constant vector's dot with two shifts of one vector adds
    * the same terms in two orders, so which one wins depends on the
    * summation order; realistic embeddings mostly sum exactly in a double.
    */
  def vectors(n: Int): Gen[Vector[Array[Float]]] = {
    val word = Gen.listOfN(5, Gen.alphaLowerChar).map(_.mkString)
    val embedded = Gen.listOfN(4, word).map(ws => Embed.embed(ws.mkString(" ")))
    val wide = Gen.listOfN(dim, Gen.frequency(
      4 -> 0f, 1 -> 1f, 1 -> -1f, 1 -> 0.7f, 1 -> 1.1e-9f, 1 -> -3.7e-5f, 1 -> 2.3e-12f)).map(_.toArray)
    val constant = Gen.oneOf(1f, 0.125f).map(c => Array.fill(dim)(c))
    def next(prev: Vector[Array[Float]]): Gen[Array[Float]] =
      if (prev.isEmpty) Gen.oneOf(embedded, wide, constant)
      else Gen.frequency(
        1 -> embedded, 3 -> wide, 1 -> constant,
        1 -> Gen.const(new Array[Float](dim)),
        1 -> Gen.oneOf(prev).map(_.clone()),
        3 -> Gen.zip(Gen.oneOf(prev), Gen.choose(1, dim - 1)).map { case (v, s) =>
          Array.tabulate(dim)(d => v((d + s) % dim)) })
    (0 until n).foldLeft(Gen.const(Vector.empty[Array[Float]])) { (acc, _) =>
      acc.flatMap(prev => next(prev).map(prev :+ _))
    }
  }

  /** `n` records with such vectors and distinct shuffled ids. */
  def records(n: Int): Gen[Vector[Record]] = for {
    vecs <- vectors(n)
    ids  <- Gen.pick(n, 0L until 1000L)
    perm <- Gen.long
  } yield vecs.zip(new scala.util.Random(perm).shuffle(ids.toVector)).map { case (v, id) =>
    Record(id, 0L, "", v) }
}
