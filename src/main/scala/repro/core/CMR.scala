package repro.core

/** Algorithm 3 — hierarchical Cluster Merge.
  *
  * Between hierarchy levels, each LLM-output cluster is replaced by a
  * representative "new record" (the member closest to the cluster's
  * mean embedding). Representatives are packed into next-round record
  * sets by similarity chaining: up to `Sd` chains of up to `ceil(Ss/Sd)`
  * mutually compatible clusters, never packing two clusters already
  * known to be different entities (anti-transitivity — clusters that
  * were co-input to the LLM before and left unmerged).
  */
object CMR {

  /** A cluster in the merge hierarchy. Its members are one component of
    * the block's [[UnionFind]], which records which clusters are known
    * to be different entities; `members.head.id` names the component.
    *
    * @param id stable id within the block's resolution (orders the
    *           next round's packing)
    */
  final case class HCluster(id: Long, members: Vector[Record]) {
    /** Representative record: member closest to the mean embedding. */
    lazy val rep: Record =
      if (members.size == 1) members.head
      else {
        val dim = members.head.vec.length
        val cen = new Array[Float](dim)
        members.foreach { r => var d = 0; while (d < dim) { cen(d) += r.vec(d); d += 1 } }
        val norm = math.sqrt(cen.map(x => x.toDouble * x).sum)
        if (norm > 0) { var d = 0; while (d < dim) { cen(d) = (cen(d) / norm).toFloat; d += 1 } }
        members.maxBy(r => repro.embed.Embed.cosine(r.vec, cen))
      }
  }

  /** Are two clusters known to be different entities? */
  def separated(uf: UnionFind, a: HCluster, b: HCluster): Boolean =
    uf.separated(a.members.head.id, b.members.head.id)

  /** Record that two clusters are different entities. */
  def separate(uf: UnionFind, a: HCluster, b: HCluster): Unit =
    uf.separate(a.members.head.id, b.members.head.id)

  private def sim(a: HCluster, b: HCluster): Double = a.rep.cos(b.rep)

  /** Build the next round's record sets (of clusters). Clusters that
    * cannot be packed with any compatible partner are returned as
    * leftovers (no LLM call needed for them this round).
    */
  def nextRoundSets(
      clusters: Vector[HCluster],
      uf: UnionFind,
      p: ERParams,
  ): (Vector[Vector[HCluster]], Vector[HCluster]) = {
    val chainLen = math.max(1, math.ceil(p.setSize.toDouble / p.setDiversity).toInt)
    val unsel    = scala.collection.mutable.LinkedHashSet(clusters.sortBy(_.id): _*)
    val sets     = Vector.newBuilder[Vector[HCluster]]
    val left     = Vector.newBuilder[HCluster]

    while (unsel.nonEmpty) {
      val set = scala.collection.mutable.ArrayBuffer.empty[HCluster]
      var j = 0
      var exhausted = false
      while (j < p.setDiversity && set.size < p.setSize && !exhausted) {
        // Seed of chain j: first unselected cluster compatible with the set so far.
        unsel.find(c => set.forall(s => !separated(uf, s, c))) match {
          case None => exhausted = true
          case Some(seed) =>
            unsel -= seed
            set += seed
            var cur   = seed
            var grown = 1
            var stop  = false
            while (grown < chainLen && set.size < p.setSize && !stop) {
              val candidates = unsel.filter(c => set.forall(s => !separated(uf, s, c)))
              if (candidates.isEmpty) stop = true
              else {
                val nxt = candidates.maxBy(c => (sim(cur, c), -c.id))
                unsel -= nxt
                set += nxt
                cur = nxt
                grown += 1
              }
            }
        }
        j += 1
      }
      if (set.size >= 2) sets += set.toVector
      else if (set.size == 1) left += set.head
    }
    (sets.result(), left.result())
  }

  /** Apply one LLM answer over a set of clusters — the one step that
    * turns an answer into `uf` facts, at every level (level 0 asks about
    * singleton clusters). The clusters whose representatives the answer
    * groups together become one component of `uf`, and each pair of
    * groups is recorded as separated, except a suspect group (one cluster
    * whose representative's placement the guardrail discarded), which
    * carries no separation evidence. Returns the groups in answer order; the caller
    * names the clusters they form.
    */
  def applyAnswer(
      inputSet: Vector[HCluster],
      answer: Clustering,
      uf: UnionFind,
      suspects: Set[Long],
  ): Vector[Vector[HCluster]] = {
    val byRep = inputSet.map(c => c.rep.id -> c).toMap
    val groups = answer.clusters.map(_.flatMap(r => byRep.get(r.id))).filter(_.nonEmpty)
    groups.foreach(g => g.tail.foreach(c => uf.union(g.head.members.head.id, c.members.head.id)))
    // A separation named by any member reaches the whole merged component.
    val trusted = groups.filterNot(g => g.size == 1 && suspects(g.head.rep.id))
    for (i <- trusted.indices; j <- i + 1 until trusted.size) separate(uf, trusted(i).head, trusted(j).head)
    groups
  }
}
