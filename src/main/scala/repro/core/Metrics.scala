package repro.core

/** Clustering-quality metrics exactly as defined in the paper (§6.1, §8).
  *
  * All take predicted clusters X and ground-truth clusters Y as
  * partitions of the same record-id universe.
  */
object Metrics {

  type Partition = Seq[Set[Long]]

  /** Build the ground-truth partition from (recordId, entityId) pairs. */
  def truthOf(recs: Iterable[(Long, Long)]): Partition =
    recs.groupBy(_._2).values.map(_.map(_._1).toSet).toVector

  private def total(x: Partition): Long = x.map(_.size.toLong).sum

  /** The nonzero cells (i, j, |x(i) ∩ y(j)|) of the contingency table of
    * `x` against `y`, in ascending (i, j) order, built in one pass over
    * the records of `x`. The metrics below visit them in the order of a
    * loop over i, then j; the zero cells left out add nothing to any of
    * their sums.
    */
  private def cells(x: Partition, y: Partition): Vector[(Int, Int, Int)] = {
    val col = y.iterator.zipWithIndex.flatMap { case (yj, j) => yj.iterator.map(_ -> j) }.toMap
    x.iterator.zipWithIndex.flatMap { case (xi, i) =>
      xi.toVector.flatMap(col.get).groupBy(identity).toVector
        .map { case (j, js) => (i, j, js.size) }.sortBy(_._2)
    }.toVector
  }

  /** ACC (Eq. 2–3): greedily match each predicted cluster to a distinct
    * ground-truth cluster by intersection size (largest first); a record
    * counts as correct if it lies in its cluster's matched truth cluster.
    */
  def acc(x: Partition, y: Partition): Double = {
    val n = total(x)
    if (n == 0) return 0.0
    val usedX = scala.collection.mutable.Set.empty[Int]
    val usedY = scala.collection.mutable.Set.empty[Int]
    var correct = 0L
    // Stable deterministic order: intersection desc, then indices (the
    // cells come in index order and the sort is stable).
    cells(x, y).sortBy(-_._3).foreach { case (i, j, inter) =>
      if (!usedX(i) && !usedY(j)) { usedX += i; usedY += j; correct += inter }
    }
    correct.toDouble / n
  }

  /** Purity (Eq. 4). A cluster's best overlap max_j |xᵢ ∩ yⱼ| / |xᵢ| is
    * its largest intersection divided once by |xᵢ|.
    */
  def purity(x: Partition, y: Partition): Double = {
    val n = total(x).toDouble
    if (n == 0) return 0.0
    val best = cells(x, y).groupMapReduce(_._1)(_._3)(math.max)
    x.zipWithIndex.map { case (xi, i) =>
      xi.size / n * (if (xi.isEmpty) 0.0 else best.getOrElse(i, 0).toDouble / xi.size)
    }.sum
  }

  /** Inverse purity (Eq. 5). */
  def inversePurity(x: Partition, y: Partition): Double = purity(y, x)

  /** FP-measure (Eq. 7): harmonic mean of purity and inverse purity. */
  def fpMeasure(x: Partition, y: Partition): Double = {
    val p = purity(x, y); val ip = inversePurity(x, y)
    if (p == 0 || ip == 0) 0.0 else 2.0 / (1.0 / p + 1.0 / ip)
  }

  /** NMI (Eq. 8–10). */
  def nmi(x: Partition, y: Partition): Double = {
    val n = total(x).toDouble
    if (n == 0) return 0.0
    def h(p: Partition): Double =
      -p.map(_.size / n).filter(_ > 0).map(q => q * math.log(q)).sum
    val hx = h(x); val hy = h(y)
    if (hx == 0 && hy == 0) return 1.0
    val xs = x.toIndexedSeq; val ys = y.toIndexedSeq
    var mi = 0.0
    for ((i, j, inter) <- cells(x, y)) {
      val pij = inter / n
      mi += pij * math.log(pij / ((xs(i).size / n) * (ys(j).size / n)))
    }
    if (hx + hy == 0) 0.0 else 2 * mi / (hx + hy)
  }

  /** Adjusted Rand Index (Eq. 11). */
  def ari(x: Partition, y: Partition): Double = {
    val n = total(x)
    def c2(m: Long): Double = m * (m - 1) / 2.0
    val sumT  = cells(x, y).map(c => c2(c._3.toLong)).sum
    val sumA  = x.map(xi => c2(xi.size.toLong)).sum
    val sumB  = y.map(yj => c2(yj.size.toLong)).sum
    val nC2   = c2(n)
    if (nC2 == 0) return 1.0
    val expected = sumA * sumB / nC2
    val maxIdx   = (sumA + sumB) / 2.0
    if (maxIdx == expected) 1.0 else (sumT - expected) / (maxIdx - expected)
  }

  /** Coefficient of variation of cluster sizes (Eq. 1) — "set variation". */
  def variation(sizes: Seq[Int]): Double = {
    if (sizes.isEmpty) return 0.0
    val mu = sizes.sum.toDouble / sizes.size
    if (mu == 0) return 0.0
    val sigma = math.sqrt(sizes.map(s => (s - mu) * (s - mu)).sum / sizes.size)
    sigma / mu
  }
}
