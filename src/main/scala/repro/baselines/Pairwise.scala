package repro.baselines

import repro.core._
import repro.llm.LLMClient

/** Pairwise matching baseline (Ss = 2) with transitivity and
  * anti-transitivity, as in [54] — the comparator of Table 2.
  *
  * Candidate pairs of a block are asked most-similar-first; a pair whose
  * relation is already implied (same union-find component, or a recorded
  * separation between the two components) is skipped. A guardrail
  * re-asks a pair once when the answer contradicts the similarity signal
  * (the paper applies its guardrail to pairwise too, §6.2.1).
  */
object Pairwise {

  def resolveBlock(blockId: Long, block: Vector[Record], llm: LLMClient): BlockResult = {
    val uf = new UnionFind(block.map(_.id))
    val pairs = (for {
      i <- block.indices; j <- i + 1 until block.size
    } yield (block(i), block(j))).sortBy { case (a, b) => -a.cos(b) }

    pairs.foreach { case (a, b) =>
      if (!uf.connected(a.id, b.id) && !uf.separated(a.id, b.id)) {
        var ans = llm.matchPair(a, b)
        // Guardrail: answer at odds with the similarity signal — re-ask
        // with the pair order flipped (a fresh prompt).
        val sim = a.cos(b)
        val suspicious = (ans && sim < 0.35) || (!ans && sim > 0.9)
        if (suspicious) ans = llm.matchPair(b, a)
        if (ans) uf.union(a.id, b.id)
        else uf.separate(a.id, b.id)
      }
    }

    BlockResult(blockId, assignmentOf(uf, block), llm.usage, Vector.empty)
  }

  private[baselines] def assignmentOf(uf: UnionFind, block: Vector[Record]): Map[Long, Int] = {
    val roots = block.map(r => uf.find(r.id)).distinct.sorted.zipWithIndex.toMap
    block.map(r => r.id -> roots(uf.find(r.id))).toMap
  }
}
