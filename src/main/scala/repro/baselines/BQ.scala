package repro.baselines

import repro.core._
import repro.llm.LLMClient

/** BQ [26] — batch prompting baseline: several pairwise questions per
  * API call, few-shot demonstrations in each prompt, no result
  * verification. Transitivity/anti-transitivity are applied between
  * batches (as in the paper's accounting, "even after applying
  * transitivity").
  */
object BQ {

  val PairsPerBatch  = 5 // 10 records ≈ our 9-record clustering prompt
  val FewShotDemos   = 8
  /** AMT-style labeling cost of the 8 demonstration pairs, amortised per
    * dataset (USD 0.08/label as in §1).
    */
  val AnnotationUsd  = 8 * 0.08

  def resolveBlock(blockId: Long, block: Vector[Record], llm: LLMClient): BlockResult = {
    val uf = new UnionFind(block.map(_.id))

    var pending = (for {
      i <- block.indices; j <- i + 1 until block.size
    } yield (block(i), block(j))).sortBy { case (a, b) => -a.cos(b) }.toVector

    while (pending.nonEmpty) {
      val needed = pending.filter { case (a, b) =>
        !uf.connected(a.id, b.id) && !uf.separated(a.id, b.id)
      }
      if (needed.isEmpty) pending = Vector.empty
      else {
        val batch = needed.take(PairsPerBatch)
        val answers = llm.batchMatch(batch, FewShotDemos)
        batch.zip(answers).foreach { case ((a, b), same) =>
          if (same) uf.union(a.id, b.id) else uf.separate(a.id, b.id)
        }
        pending = needed.drop(PairsPerBatch)
      }
    }

    BlockResult(blockId, Pairwise.assignmentOf(uf, block), llm.usage, Vector.empty)
  }
}
