package repro.core

/** The clustering metrics that `Metrics` replaced, kept verbatim (one set
  * intersection per pair of predicted and truth clusters) as the
  * reference `MetricsSpec` holds `Metrics` to: ACC, FP, NMI and ARI equal
  * bit for bit.
  */
object MetricsReference {

  type Partition = Seq[Set[Long]]

  private def total(x: Partition): Long = x.map(_.size.toLong).sum

  /** ACC (Eq. 2–3): greedily match each predicted cluster to a distinct
    * ground-truth cluster by intersection size (largest first); a record
    * counts as correct if it lies in its cluster's matched truth cluster.
    */
  def acc(x: Partition, y: Partition): Double = {
    val n = total(x)
    if (n == 0) return 0.0
    val pairs = for {
      (xi, i) <- x.zipWithIndex
      (yj, j) <- y.zipWithIndex
      inter = xi.intersect(yj).size if inter > 0
    } yield (inter, i, j)
    val usedX = scala.collection.mutable.Set.empty[Int]
    val usedY = scala.collection.mutable.Set.empty[Int]
    var correct = 0L
    // Stable deterministic order: intersection desc, then indices.
    pairs.sortBy { case (inter, i, j) => (-inter, i, j) }.foreach {
      case (inter, i, j) =>
        if (!usedX(i) && !usedY(j)) { usedX += i; usedY += j; correct += inter }
    }
    correct.toDouble / n
  }

  private def overlap(a: Set[Long], b: Set[Long]): Double =
    if (a.isEmpty) 0.0 else a.intersect(b).size.toDouble / a.size

  /** Purity (Eq. 4). */
  def purity(x: Partition, y: Partition): Double = {
    val n = total(x).toDouble
    if (n == 0) return 0.0
    x.map(xi => xi.size / n * y.map(overlap(xi, _)).maxOption.getOrElse(0.0)).sum
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
    var mi = 0.0
    for (xi <- x; yj <- y) {
      val pij = xi.intersect(yj).size / n
      if (pij > 0) mi += pij * math.log(pij / ((xi.size / n) * (yj.size / n)))
    }
    if (hx + hy == 0) 0.0 else 2 * mi / (hx + hy)
  }

  /** Adjusted Rand Index (Eq. 11). */
  def ari(x: Partition, y: Partition): Double = {
    val n = total(x)
    def c2(m: Long): Double = m * (m - 1) / 2.0
    val sumT  = (for (xi <- x; yj <- y) yield c2(xi.intersect(yj).size.toLong)).sum
    val sumA  = x.map(xi => c2(xi.size.toLong)).sum
    val sumB  = y.map(yj => c2(yj.size.toLong)).sum
    val nC2   = c2(n)
    if (nC2 == 0) return 1.0
    val expected = sumA * sumB / nC2
    val maxIdx   = (sumA + sumB) / 2.0
    if (maxIdx == expected) 1.0 else (sumT - expected) / (maxIdx - expected)
  }
}
