package repro.llm

import repro.core.{Clustering, Metrics, Record, Usage}
import repro.embed.Embed

/** Noisy-oracle LLM simulator (DESIGN.md §2–3).
  *
  * It knows the hidden ground-truth partition of the records it is
  * handed (their `entityId`), and perturbs that partition with an error
  * model driven by exactly the factors the paper finds to matter:
  *
  *  - per-record textual ambiguity (inter- vs intra-entity similarity),
  *  - set size beyond a data-dependent comfort onset (≈9 on clean data,
  *    lower on noisy domains — Figure 4 / Table 5),
  *  - set variation Sv (Figure 4),
  *  - deviation of set diversity from 4 (Figure 5),
  *  - non-sequential ordering of same-entity records (Figure 5),
  *  - few-shot demonstrations (Appendix A.6/A.7).
  *
  * A record that errs is either moved to its most textually similar
  * wrong cluster (so MDG's similarity test has real work) or split off
  * as a spurious singleton — the two hallucination modes in §5.2.
  * All draws are seeded by the set's content, so a run is reproducible
  * and identical prompts give identical answers at temperature 0.
  */
final class SimulatedLLM(cfg: LLMConfig = LLMConfig.default) extends LLMClient with Serializable {

  private var acc: Usage = Usage.zero
  override def usage: Usage = acc

  private def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  private def meter(inTok: Long, outTok: Long): Unit = {
    val lat = cfg.latencyBaseMs + cfg.latencyPerTokenMs * (inTok + outTok)
    acc = acc + Usage(1, inTok, outTok, lat)
  }

  private def promptTokens(set: Vector[Record], fewShot: Int): Long =
    cfg.instructionTokens + fewShot * 60 +
      set.map(r => Embed.llmTokens(r.text) + cfg.perRecordOverheadTokens).sum

  /** Deterministic RNG seeded by the exact prompt content. */
  private def rngFor(set: Vector[Record], salt: Long): scala.util.Random = {
    val h = set.foldLeft(salt) { (a, r) => a * 1000003L + r.id * 31 + r.text.hashCode }
    new scala.util.Random(h ^ cfg.seed)
  }

  /** inter − intra ambiguity of each record within the set under GT. */
  private def ambiguities(set: Vector[Record]): Vector[Double] = {
    set.map { r =>
      val same  = set.filter(o => o.id != r.id && o.entityId == r.entityId)
      val other = set.filter(o => o.entityId != r.entityId)
      val intra = if (same.isEmpty) 0.80 else same.map(r.cos).min
      val inter = if (other.isEmpty) 0.0 else other.map(r.cos).max
      inter - intra
    }
  }

  /** 1.0 iff the record's same-entity neighbours are all non-adjacent. */
  private def orderPenalty(set: Vector[Record], i: Int): Double = {
    val e = set(i).entityId
    val groupSize = set.count(_.entityId == e)
    if (groupSize <= 1) 0.0
    else {
      val adj = (i > 0 && set(i - 1).entityId == e) ||
                (i < set.size - 1 && set(i + 1).entityId == e)
      if (adj) 0.0 else 1.0
    }
  }

  override def clusterSet(set: Vector[Record], fewShot: Int = 0): Clustering = {
    require(set.nonEmpty, "empty record set")
    meter(promptTokens(set, fewShot), cfg.outputTokensPerRecord * set.size)
    perturb(set, fewShot, rngFor(set, 0x5eed))
  }

  /** The perturbation core of `clusterSet`: truth, then record- and
    * call-level errors drawn from `rnd`.
    */
  private def perturb(set: Vector[Record], fewShot: Int, rnd: scala.util.Random): Clustering = {
    val truthGroups = set.groupBy(_.entityId)
    val amb         = ambiguities(set)
    val meanAmb     = amb.sum / amb.size
    val sv          = Metrics.variation(truthGroups.values.map(_.size).toSeq)
    val sd          = truthGroups.size
    val onset       = math.max(4.0, math.min(cfg.baseOnset,
                        cfg.baseOnset - cfg.onsetSlope * math.max(0.0, meanAmb + 0.12)))
    val fsGain      = cfg.fewShotGain * math.min(fewShot, 6)

    // Start from truth; knock out erring records one by one.
    val assign = scala.collection.mutable.Map.empty[Long, Long] // recordId -> cluster key
    set.foreach(r => assign(r.id) = r.entityId)
    var nextSpurious = -1L

    val pHall = math.min(0.5,
      cfg.hallBase * (1.0 + cfg.hallSizeSlope * math.max(0.0, set.size - onset)) *
        (1.0 + (if (fewShot > 0) -0.3 else 0.0)))

    set.zipWithIndex.foreach { case (r, i) =>
      val others = set.filter(_.entityId != r.entityId)
      if (rnd.nextDouble() < pHall) {
        // Hallucination: similarity-uncorrelated misassignment — a random
        // wrong cluster (MDG-visible) or a spurious split.
        if (others.nonEmpty && rnd.nextDouble() < 0.8) {
          val wrongEnts = others.map(_.entityId).distinct
          assign(r.id) = wrongEnts(rnd.nextInt(wrongEnts.size))
        } else { assign(r.id) = nextSpurious; nextSpurious -= 1 }
      } else {
        // Confusion: similarity-correlated error on genuinely ambiguous
        // records (largely invisible to a similarity-based guardrail).
        val logit =
          cfg.ambWeight * amb(i) +
            cfg.sizeWeight * math.max(0.0, set.size - onset) +
            cfg.variationWeight * sv +
            cfg.orderWeight * orderPenalty(set, i) +
            cfg.diversityWeight * math.abs(sd - 4.0) / 4.0 -
            cfg.bias - fsGain
        if (rnd.nextDouble() < sigmoid(logit)) {
          if (others.nonEmpty && rnd.nextDouble() < cfg.moveFraction) {
            // Move to a wrong cluster: half the time the most textually
            // similar one (guardrail-blind), half the time a random one
            // (guardrail-visible) — LLM confusion is only partially
            // similarity-correlated.
            if (rnd.nextDouble() < 0.5) assign(r.id) = others.maxBy(r.cos).entityId
            else {
              val wrongEnts = others.map(_.entityId).distinct
              assign(r.id) = wrongEnts(rnd.nextInt(wrongEnts.size))
            }
          } else {
            assign(r.id) = nextSpurious; nextSpurious -= 1
          }
        }
      }
    }

    // Materialise clusters in first-appearance order of the input set.
    val order = scala.collection.mutable.LinkedHashMap.empty[Long, Vector[Record]]
    set.foreach { r =>
      val k = assign(r.id)
      order(k) = order.getOrElse(k, Vector.empty) :+ r
    }
    var clusters = order.values.toVector
    // Call-level hallucinations — the modes that cascade through the
    // merge hierarchy when no guardrail rejects them: the degenerate
    // "everything is one entity" answer, or gluing two random clusters.
    val fsDamp  = 1.0 - 0.3 * math.min(1, fewShot)
    val pGiant  = cfg.giantMergeBase * fsDamp
    val pMerge  = cfg.mergeHallBase * fsDamp
    if (clusters.size >= 2) {
      val u = rnd.nextDouble()
      if (u < pGiant) {
        clusters = Vector(clusters.flatten)
      } else if (u < pGiant + pMerge) {
        val i = rnd.nextInt(clusters.size)
        var j = rnd.nextInt(clusters.size - 1)
        if (j >= i) j += 1
        val merged = clusters(math.min(i, j)) ++ clusters(math.max(i, j))
        clusters = clusters.zipWithIndex.collect {
          case (c, k) if k != i && k != j => c
        } :+ merged
      }
    }
    Clustering(clusters)
  }

  /** Pairwise question: error probability is a logistic in how close the
    * pair's cosine similarity sits to the decision boundary, mirroring
    * the set model at Ss=2.
    */
  override def matchPair(a: Record, b: Record, fewShot: Int = 0): Boolean = {
    meter(90 + fewShot * 60 + Embed.llmTokens(a.text) + Embed.llmTokens(b.text), 5)
    decidePair(a, b, fewShot, rngFor(Vector(a, b), 0x9a17))
  }

  private def decidePair(a: Record, b: Record, fewShot: Int, rnd: scala.util.Random): Boolean = {
    val same = a.entityId == b.entityId
    val sim  = a.cos(b)
    val amb  = if (same) cfg.pairBoundary - sim else sim - cfg.pairBoundary
    val pErr = sigmoid(cfg.pairAmbWeight * amb - cfg.pairBias -
                       cfg.fewShotGain * math.min(fewShot, 6))
    if (rnd.nextDouble() < pErr) !same else same
  }

  /** BQ-style batch: several pairwise questions in one prompt/API call.
    * Later questions in a batch get a small contextual gain (the
    * "LLM leverages prior classifications" effect of [26]).
    */
  override def batchMatch(pairs: Vector[(Record, Record)], fewShot: Int = 0): Vector[Boolean] = {
    require(pairs.nonEmpty, "empty batch")
    val inTok = 110 + fewShot * 60 +
      pairs.map { case (a, b) => Embed.llmTokens(a.text) + Embed.llmTokens(b.text) + 8 }.sum
    meter(inTok, 5L * pairs.size)
    val rnd = rngFor(pairs.flatMap(p => Vector(p._1, p._2)), 0xba7c)
    pairs.zipWithIndex.map { case ((a, b), i) =>
      val contextBonus = math.min(2, i) // prior answers in the prompt help a bit
      decidePair(a, b, fewShot + contextBonus, rnd)
    }
  }
}
