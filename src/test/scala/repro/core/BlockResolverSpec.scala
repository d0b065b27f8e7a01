package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.data.{DatasetProfile, ERGen}
import repro.llm.{LLMConfig, SimulatedLLM}

class BlockResolverSpec extends AnyFunSuite with PropSupport {

  private val recs = ERGen.recordsLocal(DatasetProfile.mini(DatasetProfile.citeseer, 300))
  /** A perfect-oracle configuration: no hallucination, no confusion. */
  private val oracleCfg = LLMConfig(hallBase = 0.0, mergeHallBase = 0.0,
                                    giantMergeBase = 0.0, bias = 30.0)
  /** A giant-merge-always configuration: every call returns one cluster. */
  private val giantCfg = LLMConfig(hallBase = 0.0, mergeHallBase = 0.0,
                                   giantMergeBase = 1.0, bias = 30.0)
  private val p = ERParams(coherenceFloor = 0.5)

  private def blockOf(nEnts: Int, per: Int): Vector[Record] =
    recs.groupBy(_.entityId).values.filter(_.size >= per).take(nEnts)
      .flatMap(_.take(per)).toVector

  test("a singleton block needs no LLM call") {
    val res = BlockResolver.resolve(0, recs.take(1), new SimulatedLLM(oracleCfg), p)
    assert(res.usage.apiCalls == 0)
    assert(res.assignment == Map(recs.head.id -> 0))
  }

  test("with a perfect oracle the block resolves to the exact entity partition") {
    val block = blockOf(6, 4)
    val res   = BlockResolver.resolve(1, block, new SimulatedLLM(oracleCfg), p)
    val pred  = res.assignment.groupBy(_._2).values.map(_.keys.toSet).toVector
    val truth = Metrics.truthOf(block.map(r => (r.id, r.entityId)))
    assert(Metrics.fpMeasure(pred, truth) > 0.999, s"pred=$pred truth=$truth")
  }

  test("all-same-entity block collapses to a single cluster") {
    val ent   = recs.groupBy(_.entityId).values.maxBy(_.size).take(12).toVector
    val res   = BlockResolver.resolve(2, ent, new SimulatedLLM(oracleCfg), p)
    assert(res.assignment.values.toSet.size == 1)
  }

  test("all-distinct-entities block yields all singleton clusters") {
    val block = recs.groupBy(_.entityId).values.map(_.head).take(12).toVector
    val res   = BlockResolver.resolve(3, block, new SimulatedLLM(oracleCfg), p)
    assert(res.assignment.values.toSet.size == block.size)
  }

  test("every record is assigned exactly once") {
    val block = blockOf(5, 5)
    val res   = BlockResolver.resolve(4, block, new SimulatedLLM(), p)
    assert(res.assignment.keys.toVector.sorted == block.map(_.id).sorted)
  }

  test("level telemetry: level 0 call count covers ceil(n/Ss) sets") {
    val block = blockOf(6, 6) // 36 records -> >= 4 level-0 sets
    val res   = BlockResolver.resolve(5, block, new SimulatedLLM(oracleCfg), p)
    assert(res.setsPerLevel.nonEmpty)
    assert(res.setsPerLevel.head >= math.ceil(block.size / 9.0).toInt)
  }

  test("usage accumulates across the hierarchy") {
    val block = blockOf(6, 6)
    val res   = BlockResolver.resolve(6, block, new SimulatedLLM(oracleCfg), p)
    assert(res.usage.apiCalls == res.setsPerLevel.map(_.toLong).sum)
    assert(res.usage.inputTokens > 0)
  }

  test("MDG regeneration retries are bounded by maxRegens") {
    // Force rejections with an adversarial floor: every answer flagged.
    val block = blockOf(4, 2)
    val badP  = p.copy(coherenceFloor = 2.0, maxRegens = 2) // floor > any cosine
    val llm   = new SimulatedLLM(oracleCfg)
    val res   = BlockResolver.resolve(7, block, llm, badP)
    // At most (1 + maxRegens) calls per set.
    assert(res.usage.apiCalls <= res.setsPerLevel.size.toLong * block.size * 3)
  }

  test("guardrail fallback splits flagged records instead of accepting bad merges") {
    val block = recs.groupBy(_.entityId).values.map(_.head).take(6).toVector // all distinct
    val res = BlockResolver.resolve(8, block, new SimulatedLLM(giantCfg),
                                    p.copy(coherenceFloor = 0.7))
    // Without the guardrail everything would collapse into one cluster;
    // with it, dissimilar records must stay apart.
    assert(res.assignment.values.toSet.size > 1)
  }

  test("deterministic: same block, same seed, same result") {
    val block = blockOf(4, 4)
    val r1 = BlockResolver.resolve(9, block, new SimulatedLLM(), p)
    val r2 = BlockResolver.resolve(9, block, new SimulatedLLM(), p)
    assert(r1.assignment == r2.assignment)
    assert(r1.usage == r2.usage)
  }

  test("resolve equals the reference loop on random blocks, guardrail settings and clients") {
    // Runs of same-entity records (merges to make) or scattered draws
    // (mostly distinct entities), in id order as `LLMCER.runWith` hands them.
    val pools = Vector(DatasetProfile.cora, DatasetProfile.mini(DatasetProfile.as, 600))
      .map(ERGen.recordsLocal(_)) :+ recs
    val byEntity = pools.map(_.sortBy(r => (r.entityId, r.id)))
    val blocks = for {
      k     <- Gen.choose(0, pools.size - 1)
      n     <- Gen.choose(2, 60)
      block <- Gen.oneOf(Gen.choose(0, pools(k).size - n).map(i => byEntity(k).slice(i, i + n)),
                         Gen.pick(n, pools(k)).map(_.toVector))
    } yield block.sortBy(_.id)
    val params = for {
      mdg    <- Gen.oneOf(true, false)
      floor  <- Gen.choose(0.2, 0.9)
      regens <- Gen.choose(0, 2)
    } yield ERParams(useMDG = mdg, coherenceFloor = floor, maxRegens = regens)
    val clients = Gen.oneOf("default" -> LLMConfig.default, "oracle" -> oracleCfg, "giant" -> giantCfg)
    checkProp(Prop.forAllNoShrink(blocks, params, clients) { case (block, q, (name, cfg)) =>
      val got  = BlockResolver.resolve(0, block, new SimulatedLLM(cfg), q)
      val want = BlockResolverReference.resolve(0, block, new SimulatedLLM(cfg), q)
      Prop(got == want) :| s"$name $q ${block.map(_.id)}: $got vs reference $want"
    }, minTests = 200)
  }
}
