package repro.baselines

import repro.core._
import repro.llm.LLMClient

/** CrowdER+LLM [77] — cluster-based HIT generation with the crowd
  * replaced by the LLM (§6.2.2).
  *
  * CrowdER generates *overlapping* record sets up front so that every
  * uncertain candidate pair appears in at least one set, clusters each
  * set, and merges via transitive closure over co-clustered pairs.
  * No verification of the clustering outputs (the paper's critique #3),
  * and no hierarchical pruning — hence 2–5× more sets than LLM-CER.
  */
object CrowdER {

  /** Greedy set cover: repeatedly build a record set of size ≤ Ss that
    * covers the most still-uncovered uncertain pairs.
    */
  def buildSets(block: Vector[Record], uncertain: Vector[(Long, Long)],
                setSize: Int): Vector[Vector[Record]] = {
    val byId = block.map(r => r.id -> r).toMap
    var uncovered = uncertain.toSet
    val sets = Vector.newBuilder[Vector[Record]]
    while (uncovered.nonEmpty) {
      // Seed with the record participating in the most uncovered pairs.
      val degree = uncovered.toSeq.flatMap(p => Seq(p._1, p._2))
        .groupBy(identity).view.mapValues(_.size).toMap
      val seedId = degree.maxBy { case (id, d) => (d, -id) }._1
      val set = scala.collection.mutable.LinkedHashSet(seedId)
      var grown = true
      while (set.size < setSize && grown) {
        // Add the record covering the most uncovered pairs with the set.
        val gains = block.iterator.filterNot(r => set(r.id)).map { r =>
          val g = set.count(s => uncovered(orient(s, r.id)))
          (r.id, g)
        }.toVector
        val best = gains.maxByOption { case (id, g) => (g, -id) }
        best match {
          case Some((id, g)) if g > 0 => set += id
          case _                      => grown = false
        }
      }
      uncovered = uncovered.filterNot { case (a, b) => set(a) && set(b) }
      sets += set.toVector.map(byId)
    }
    sets.result()
  }

  private def orient(a: Long, b: Long): (Long, Long) = if (a < b) (a, b) else (b, a)

  def resolveBlock(blockId: Long, block: Vector[Record], llm: LLMClient,
                   setSize: Int, uncertainThreshold: Double): BlockResult = {
    val uncertain = (for {
      i <- block.indices; j <- i + 1 until block.size
      if block(i).cos(block(j)) >= uncertainThreshold
    } yield orient(block(i).id, block(j).id)).toVector

    val uf = new UnionFind(block.map(_.id))
    if (uncertain.nonEmpty) {
      val sets = buildSets(block, uncertain, setSize)
      sets.foreach { set =>
        if (set.size >= 2) {
          val answer = llm.clusterSet(set) // no MDG, answers trusted as-is
          answer.clusters.foreach { cl =>
            cl.sliding(2).foreach {
              case Vector(a, b) => uf.union(a.id, b.id)
              case _            =>
            }
          }
        }
      }
    }
    BlockResult(blockId, Pairwise.assignmentOf(uf, block), llm.usage, Vector.empty)
  }
}
