package repro.blocking

import repro.core.UnionFind

/** The `Blocking.componentsCapped` that sorted boxed `(-sim, a, b)` tuple
  * keys, kept verbatim as the reference `PackedJoinSpec` holds it to: the
  * same record id -> block id map.
  */
object ComponentsReference {

  def componentsCapped(allIds: Seq[Long], edges: Seq[(Long, Long, Double)],
                       cap: Int = Blocking.MaxBlockSize): Map[Long, Long] = {
    val uf   = new UnionFind(allIds)
    val size = scala.collection.mutable.Map.empty[Long, Int]
    allIds.foreach(id => size(id) = 1)
    edges.sortBy { case (a, b, sim) => (-sim, a, b) }.foreach { case (a, b, _) =>
      val ra = uf.find(a); val rb = uf.find(b)
      if (ra != rb && size(ra) + size(rb) <= cap) {
        uf.union(a, b)
        val r = uf.find(a)
        size(r) = size(ra) + size(rb)
      }
    }
    // Canonical block id: smallest record id of the component.
    val rootMin = allIds.groupBy(uf.find).map { case (r, ids) => r -> ids.min }
    allIds.map(id => id -> rootMin(uf.find(id))).toMap
  }
}
