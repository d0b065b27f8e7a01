package repro.core

import java.util.concurrent.{ExecutionException, ForkJoinPool, FutureTask}

/** Local k-means + elbow, used by NRS (Algorithm 1, lines 9–10) for its
  * preliminary diversity assessment of a block's remaining records.
  *
  * It runs inside the block's resolve task, once per record set, over
  * every record still left in the block. Blocks from LSH/Filter/Canopy
  * hold at most `Blocking.MaxBlockSize` records, but `NoBlocking` makes
  * the whole dataset one block (1,290 records on Cora, so 144 elbow
  * searches over up to 1,290 records). The vectors are therefore copied
  * once into one flat `n × dim` float array and every loop is primitive,
  * and the elbow's per-k runs (Lloyd + cohesion for k = 2..cap) execute
  * on the JVM's common fork-join pool, shared by all of the executor's
  * tasks. Each run only reads the shared points and seeds, and the runs
  * are combined in k order, so the chosen k and clustering are those of
  * running them one after another.
  *
  * The arithmetic order is part of the determinism contract: a change to
  * it changes which records NRS groups, and so every downstream output.
  *   - A dot product multiplies two floats as a float, widens the
  *     product, and adds it into a double, left to right over the
  *     dimensions.
  *   - A centroid is the float sum of its members in input order,
  *     divided by `math.sqrt` of the left-to-right double sum of its
  *     squared components (when that norm is positive).
  *   - Ties go to the first maximum, in seeding and in assignment.
  *   - An empty cluster keeps its old centroid.
  *   - Clusters are ordered by their smallest record id, members in
  *     input order, and cohesion sums the clusters in that order.
  */
object KMeans {

  /** The elbow-chosen cluster count and the clustering for it. */
  final case class Elbow(k: Int, clusters: Vector[Vector[Record]])

  /** Elbow method: for k = 2..min(maxK, n), cluster with Lloyd's
    * algorithm and keep the largest k whose cohesion gain over k-1
    * exceeds 0.02 (k = 1 when none does). Returns that k with its
    * clustering, so the caller need not cluster again.
    */
  def elbow(recs: Vector[Record], maxK: Int, seed: Long): Elbow = {
    if (recs.size <= 1) return Elbow(1, if (recs.isEmpty) Vector.empty else Vector(recs))
    val pts = new Points(recs)
    val cap = math.min(maxK, pts.n)
    // Seeding for k is a prefix of the seeding for cap.
    val seeds = farthestPointSeeds(pts, math.max(cap, 1), seed)
    // The runs for k = 2..cap only read `pts` and `seeds`; they are
    // submitted largest k first, the longest, and read back in k order.
    val runs = parallel((cap to 2 by -1).map { k => () =>
      val assign = lloyd(pts, seeds, k)
      (assign, cohesion(pts, assign, k))
    }).reverse
    var best = 1
    var bestAssign = new Array[Int](pts.n)
    var prev = cohesion(pts, bestAssign, 1)
    var k = 1
    while (k < cap) {
      k += 1
      val (assign, coh) = runs(k - 2)
      if (coh - prev > 0.02) { best = k; bestAssign = assign }
      prev = coh
    }
    Elbow(best, groups(pts, bestAssign, best))
  }

  /** Runs `jobs` on the JVM's common fork-join pool, submitted in the
    * order given, and returns their results in that order. The pool is
    * shared by all of the executor's tasks, so the caller does not wait on
    * a queued job: it runs, last first, every job no pool thread has
    * started. A job's exception is rethrown as it was thrown.
    */
  private[core] def parallel[A](jobs: IndexedSeq[() => A]): IndexedSeq[A] = {
    val tasks = jobs.map(job => new FutureTask[A](() => job()))
    tasks.foreach(ForkJoinPool.commonPool().execute(_))
    tasks.reverseIterator.foreach(_.run())
    tasks.map { t =>
      try t.get()
      catch { case e: ExecutionException => throw e.getCause }
    }
  }

  /** Lloyd's algorithm with k = min(k, n) on L2-normalised vectors,
    * deterministic in seed: the first centroid is a random record, the
    * rest are farthest-point picks. The clustering `elbow` makes for k.
    */
  private[core] def cluster(recs: Vector[Record], k: Int, seed: Long): Vector[Vector[Record]] = {
    require(k >= 1, s"k must be >= 1, got $k")
    if (recs.isEmpty) return Vector.empty
    val pts = new Points(recs)
    val kk = math.min(k, pts.n)
    groups(pts, lloyd(pts, farthestPointSeeds(pts, kk, seed), kk), kk)
  }

  private val Iters = 12

  /** The records with their vectors copied into one row-major array,
    * component d of record i at `x(i * dim + d)`, for summing centroids,
    * and one column-major array, at `xt(d * n + i)`, for dot products.
    */
  private final class Points(val recs: Vector[Record]) {
    val n: Int = recs.size
    val dim: Int = recs.head.vec.length
    val ids: Array[Long] = recs.iterator.map(_.id).toArray
    val x: Array[Float] = new Array[Float](n * dim)
    val xt: Array[Float] = new Array[Float](dim * n)
    recs.iterator.zipWithIndex.foreach { case (r, i) =>
      System.arraycopy(r.vec, 0, x, i * dim, dim)
      var d = 0
      while (d < dim) { xt(d * n + i) = r.vec(d); d += 1 }
    }

    /** `out(i) = dot(record i, c)`, with component d of `c` at `c(co + d)`.
      * Every record keeps its own left-to-right sum over the dimensions;
      * with records innermost the sums are independent, so the loop is
      * not bound by the latency of one chain of additions.
      */
    def dots(c: Array[Float], co: Int, out: Array[Double]): Unit = {
      java.util.Arrays.fill(out, 0, n, 0.0)
      var d = 0
      while (d < dim) {
        val cd = c(co + d); val o = d * n
        var i = 0
        while (i < n) { out(i) += xt(o + i) * cd; i += 1 }
        d += 1
      }
    }
  }

  /** Seed record indices, with `dots(m)(i)` the dot of seed m with record i. */
  private final class Seeds(val idx: Array[Int], val dots: Array[Array[Double]])

  /** The first `k` seed records: one drawn from `seed`, then repeatedly
    * the record whose cosine distance to its nearest seed is largest.
    * Each record keeps that distance as a running minimum.
    */
  private def farthestPointSeeds(pts: Points, k: Int, seed: Long): Seeds = {
    import pts._
    val idx = new Array[Int](k)
    val dot = Array.fill(k)(new Array[Double](n))
    idx(0) = new scala.util.Random(seed).nextInt(n)
    val minDist = Array.fill(n)(Double.PositiveInfinity)
    var m = 0
    while (m < k) {
      dots(recs(idx(m)).vec, 0, dot(m))
      if (m + 1 < k) {
        var far = 0; var i = 0
        while (i < n) {
          val d = 1.0 - dot(m)(i)
          if (d < minDist(i)) minDist(i) = d
          if (minDist(i) > minDist(far)) far = i
          i += 1
        }
        idx(m + 1) = far
      }
      m += 1
    }
    new Seeds(idx, dot)
  }

  /** Lloyd iterations from the first `k` seeds; returns each record's
    * cluster. A cluster whose members did not change keeps bit for bit
    * the same centroid, so its dots are not computed again; the seeds'
    * dots come from the seeding.
    */
  private def lloyd(pts: Points, seeds: Seeds, k: Int): Array[Int] = {
    import pts._
    val cent = new Array[Float](k * dim)
    val score = Array.tabulate(k)(j => seeds.dots(j).clone())
    var j = 0
    while (j < k) { System.arraycopy(recs(seeds.idx(j)).vec, 0, cent, j * dim, dim); j += 1 }
    val assign = new Array[Int](n)
    // After the first pass every non-empty cluster has gained or lost a
    // member, unless no record left cluster 0 and the loop ends.
    val moved = new Array[Boolean](k)
    var it = 0
    var changed = true
    while (it < Iters && changed) {
      changed = false
      var i = 0
      while (i < n) {
        var best = 0; j = 1
        while (j < k) { if (score(j)(i) > score(best)(i)) best = j; j += 1 }
        if (best != assign(i)) {
          moved(assign(i)) = true; moved(best) = true
          assign(i) = best; changed = true
        }
        i += 1
      }
      // Centroids from an unchanged assignment, or after the last
      // iteration, would not be used.
      if (changed && it + 1 < Iters) {
        centroids(pts, assign, k, moved, cent)
        j = 0
        while (j < k) {
          if (moved(j)) { dots(cent, j * dim, score(j)); moved(j) = false }
          j += 1
        }
      }
      it += 1
    }
    assign
  }

  /** Normalised centroid of every non-empty cluster `j` with `update(j)`,
    * written into `cent`; other rows are left as they were. Returns the
    * sizes of the updated clusters.
    */
  private def centroids(pts: Points, assign: Array[Int], k: Int, update: Array[Boolean],
                        cent: Array[Float]): Array[Int] = {
    import pts._
    val sum = new Array[Float](k * dim)
    val count = new Array[Int](k)
    var i = 0
    while (i < n) {
      if (update(assign(i))) {
        val c = assign(i) * dim; val r = i * dim
        var d = 0
        while (d < dim) { sum(c + d) += x(r + d); d += 1 }
        count(assign(i)) += 1
      }
      i += 1
    }
    var j = 0
    while (j < k) {
      if (count(j) > 0) {
        val o = j * dim
        var sq = 0.0
        var d = 0
        while (d < dim) { sq += sum(o + d).toDouble * sum(o + d); d += 1 }
        val norm = math.sqrt(sq)
        if (norm > 0) { d = 0; while (d < dim) { sum(o + d) = (sum(o + d) / norm).toFloat; d += 1 } }
        System.arraycopy(sum, o, cent, o, dim)
      }
      j += 1
    }
    count
  }

  /** Within-cluster cohesion: the mean over clusters of the mean cosine
    * of members to their centroid.
    */
  private def cohesion(pts: Points, assign: Array[Int], k: Int): Double = {
    import pts._
    val cent = new Array[Float](k * dim)
    val count = centroids(pts, assign, k, Array.fill(k)(true), cent)
    val dot = new Array[Double](n)
    var d = 0
    while (d < dim) {
      val o = d * n
      var i = 0
      while (i < n) { dot(i) += xt(o + i) * cent(assign(i) * dim + d); i += 1 }
      d += 1
    }
    val within = new Array[Double](k)
    var i = 0
    while (i < n) { within(assign(i)) += dot(i); i += 1 }
    val order = labelOrder(pts, assign, k)
    var total = 0.0
    order.foreach(j => total += within(j) / count(j))
    total / order.length
  }

  /** Non-empty cluster labels, ordered by each cluster's smallest record id. */
  private def labelOrder(pts: Points, assign: Array[Int], k: Int): Array[Int] = {
    val minId = Array.fill(k)(Long.MaxValue)
    val size  = new Array[Int](k)
    var i = 0
    while (i < pts.n) {
      val j = assign(i)
      minId(j) = math.min(minId(j), pts.ids(i)); size(j) += 1
      i += 1
    }
    (0 until k).filter(size(_) > 0).sortBy(minId(_)).toArray
  }

  private def groups(pts: Points, assign: Array[Int], k: Int): Vector[Vector[Record]] = {
    val members = Array.fill(k)(Vector.newBuilder[Record])
    var i = 0
    while (i < pts.n) { members(assign(i)) += pts.recs(i); i += 1 }
    labelOrder(pts, assign, k).iterator.map(members(_).result()).toVector
  }
}
