package repro.core

/** The record-set creation that `NRS` replaced, kept verbatim: the fill
  * step (Alg. 1, lines 18–21) scores every remaining record with its own
  * proxy-size variation. `NRSSpec` holds `NRS.allSets` to it: same sets,
  * same records, same order.
  */
object NRSReference {

  /** Coefficient of variation of proxy-cluster sizes if `r` joined the
    * set, where proxy clusters come from the preliminary k-means
    * assignment (`proxy(recordId)`).
    */
  private def svAfterAdding(set: Vector[Record], r: Record, proxy: Map[Long, Int]): Double = {
    val sizes = (set :+ r).groupBy(x => proxy.getOrElse(x.id, -1)).values.map(_.size).toSeq
    Metrics.variation(sizes)
  }

  /** Create the next record set from `remain`; returns (set, rest). */
  def nextSet(remain: Vector[Record], p: ERParams): (Vector[Record], Vector[Record]) = {
    require(remain.nonEmpty, "no records remaining")
    if (remain.size <= p.setSize) {
      (NRS.orderSequentially(remain), Vector.empty)
    } else {
      // Preliminary diversity assessment (Lines 9–10).
      val proxy   = KMeans.elbow(remain, math.min(p.setSize, 8), p.seed).clusters
      val proxyOf = proxy.zipWithIndex.flatMap { case (c, i) => c.map(_.id -> i) }.toMap
      val targetSize = math.max(1, p.setSize / p.setDiversity)

      val set  = scala.collection.mutable.ArrayBuffer.empty[Record]
      val used = scala.collection.mutable.Set.empty[Long]
      // Lines 12–17: take targetSize records from each big-enough proxy cluster.
      proxy.foreach { cluster =>
        if (set.size < p.setSize && cluster.size >= targetSize) {
          val take = cluster.filterNot(r => used(r.id))
            .take(math.min(targetSize, p.setSize - set.size))
          take.foreach { r => set += r; used += r.id }
        }
      }
      // Lines 18–21: fill up, minimising the variation increase.
      var rest = remain.filterNot(r => used(r.id))
      while (set.size < p.setSize && rest.nonEmpty) {
        val bestIdx = rest.indices.minBy(i => svAfterAdding(set.toVector, rest(i), proxyOf))
        val r = rest(bestIdx)
        set += r; used += r.id
        rest = rest.patch(bestIdx, Nil, 1)
      }
      (NRS.orderSequentially(set.toVector), remain.filterNot(r => used(r.id)))
    }
  }

  /** Partition a whole block into record sets (repeated nextSet). */
  def allSets(block: Vector[Record], p: ERParams): Vector[Vector[Record]] = {
    val out = Vector.newBuilder[Vector[Record]]
    var remain = block
    while (remain.nonEmpty) {
      val (set, rest) = nextSet(remain, p)
      out += set
      remain = rest
    }
    out.result()
  }
}
