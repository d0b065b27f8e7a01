package repro.perfbench

/** Order statistics computed as Python's `statistics` module computes
  * them, so in-run medians and cross-run quartiles use one method.
  */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val m = s.size
    if (m % 2 == 1) s(m / 2) else (s(m / 2 - 1) + s(m / 2)) / 2
  }

  /** `statistics.quantiles(xs, n=n)` with its default exclusive method:
    * the n - 1 cut points; a single value is its own every cut point.
    */
  def quantiles(xs: Seq[Double], n: Int): Vector[Double] = {
    require(xs.nonEmpty && n >= 1, s"quantiles of ${xs.size} values into $n")
    val d  = xs.sorted.toVector
    val ld = d.size
    if (ld == 1) Vector.fill(n - 1)(d.head)
    else {
      val m = ld + 1
      (1 until n).map { i =>
        val j     = math.min(math.max(i * m / n, 1), ld - 1)
        val delta = i * m - j * n
        (d(j - 1) * (n - delta) + d(j) * delta) / n
      }.toVector
    }
  }
}
