package repro.baselines

import repro.core._
import repro.llm.LLMClient

/** Booster [43] — LLM-assisted selection among candidate partitionings.
  *
  * Per block it forms several candidate partitions (connected components
  * of the similarity graph at different thresholds), then iteratively
  * asks the LLM the *most informative* record pair — the one on which
  * the surviving candidates disagree the most — scoring each candidate
  * by its agreement with the answers. The winning partition is returned
  * unmodified (Booster cannot refine beyond its candidates, which caps
  * its quality — §6.2.2 observation 2).
  */
object Booster {

  val Thresholds  = Vector(0.45, 0.55, 0.65, 0.75, 0.85)
  /** Question budget per block, proportional to block size. */
  def budget(n: Int): Int = math.max(2, n / 2)

  private def partitionAt(block: Vector[Record], t: Double): Map[Long, Long] = {
    val uf = new UnionFind(block.map(_.id))
    for (i <- block.indices; j <- i + 1 until block.size)
      if (block(i).cos(block(j)) >= t) uf.union(block(i).id, block(j).id)
    block.map(r => r.id -> uf.find(r.id)).toMap
  }

  def resolveBlock(blockId: Long, block: Vector[Record], llm: LLMClient): BlockResult = {
    val cands  = Thresholds.map(t => partitionAt(block, t)).distinct
    val scores = scala.collection.mutable.ArrayBuffer.fill(cands.size)(0.0)

    if (cands.size > 1 && block.size > 1) {
      val pairs = for (i <- block.indices; j <- i + 1 until block.size)
        yield (block(i), block(j))
      var asked = Set.empty[(Long, Long)]
      var q = 0
      val maxQ = budget(block.size)
      var informative = true
      while (q < maxQ && informative) {
        // Disagreement of candidates on each unasked pair.
        val scored = pairs.filterNot(p => asked((p._1.id, p._2.id))).map { case (a, b) =>
          val votes = cands.map(c => c(a.id) == c(b.id))
          val yes   = votes.count(identity)
          ((a, b), math.min(yes, votes.size - yes))
        }
        val best = scored.maxByOption(_._2)
        best match {
          case Some(((a, b), disagreement)) if disagreement > 0 =>
            asked += ((a.id, b.id))
            val ans = llm.matchPair(a, b)
            cands.indices.foreach { ci =>
              val agree = (cands(ci)(a.id) == cands(ci)(b.id)) == ans
              scores(ci) += (if (agree) 1.0 else -1.0)
            }
            q += 1
          case _ => informative = false
        }
      }
    }

    val winner = cands(scores.indices.maxBy(i => (scores(i), -i)))
    val roots  = winner.values.toVector.distinct.sorted.zipWithIndex.toMap
    BlockResult(blockId, winner.map { case (id, r) => id -> roots(r) }, llm.usage, Vector.empty)
  }
}
