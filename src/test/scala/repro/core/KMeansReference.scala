package repro.core

/** The k-means + elbow that `KMeans` replaced, kept verbatim (boxed
  * vectors, `maxBy`, `indices.filter`) as the reference `KMeansSpec`
  * holds `KMeans` to: same k, same groups, same order.
  */
object KMeansReference {

  /** Lloyd's algorithm on L2-normalised vectors; deterministic in seed. */
  def cluster(recs: Vector[Record], k: Int, seed: Long, iters: Int = 12): Vector[Vector[Record]] = {
    require(k >= 1, s"k must be >= 1, got $k")
    if (recs.isEmpty) return Vector.empty
    val kk = math.min(k, recs.size)
    val dim = recs.head.vec.length
    val rnd = new scala.util.Random(seed)
    // k-means++-lite seeding: first centroid random, rest farthest-point.
    var centroids = Vector(recs(rnd.nextInt(recs.size)).vec.clone())
    while (centroids.size < kk) {
      val far = recs.maxBy(r => centroids.map(c => 1.0 - dot(r.vec, c)).min)
      centroids = centroids :+ far.vec.clone()
    }
    var assign = Array.fill(recs.size)(0)
    var it = 0
    var changed = true
    while (it < iters && changed) {
      changed = false
      var i = 0
      while (i < recs.size) {
        val best = centroids.indices.maxBy(j => dot(recs(i).vec, centroids(j)))
        if (best != assign(i)) { assign(i) = best; changed = true }
        i += 1
      }
      centroids = centroids.indices.map { j =>
        val members = recs.indices.filter(assign(_) == j)
        if (members.isEmpty) centroids(j)
        else {
          val c = new Array[Float](dim)
          members.foreach { m => var d = 0; while (d < dim) { c(d) += recs(m).vec(d); d += 1 } }
          val norm = math.sqrt(c.map(x => x.toDouble * x).sum)
          if (norm > 0) { var d = 0; while (d < dim) { c(d) = (c(d) / norm).toFloat; d += 1 } }
          c
        }
      }.toVector
      it += 1
    }
    recs.indices.groupBy(assign(_)).values
      .map(_.map(recs(_)).toVector).toVector
      .filter(_.nonEmpty)
      .sortBy(c => c.map(_.id).min)
  }

  private def dot(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Within-cluster cohesion (mean cosine of members to their centroid). */
  private def cohesion(clusters: Vector[Vector[Record]]): Double = {
    if (clusters.isEmpty) return 0.0
    val per = clusters.map { c =>
      val dim = c.head.vec.length
      val cen = new Array[Float](dim)
      c.foreach { r => var d = 0; while (d < dim) { cen(d) += r.vec(d); d += 1 } }
      val norm = math.sqrt(cen.map(x => x.toDouble * x).sum)
      if (norm > 0) { var d = 0; while (d < dim) { cen(d) = (cen(d) / norm).toFloat; d += 1 } }
      c.map(r => dot(r.vec, cen)).sum / c.size
    }
    per.sum / per.size
  }

  /** Elbow method: smallest k whose cohesion gain over k-1 drops below
    * a knee threshold; caps at maxK. Used as the "diversity" estimate.
    */
  def elbowK(recs: Vector[Record], maxK: Int, seed: Long): Int = {
    if (recs.size <= 1) return math.max(1, recs.size)
    val cap = math.min(maxK, recs.size)
    var prev = cohesion(Vector(recs))
    var k = 1
    var best = 1
    while (k < cap) {
      k += 1
      val coh = cohesion(cluster(recs, k, seed))
      if (coh - prev > 0.02) best = k
      prev = coh
    }
    best
  }
}
