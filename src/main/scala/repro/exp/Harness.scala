package repro.exp

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.baselines._
import repro.blocking.Blocking
import repro.core._
import repro.data.{DatasetProfile, ERGen}
import repro.llm.{LLMConfig, SimulatedLLM}

/** One end-to-end measurement, in the units the paper's tables use. */
final case class ResultRow(
    dataset: String,
    method: String,
    acc: Double,
    fp: Double,
    nmi: Double,
    ari: Double,
    costUsd: Double,
    tokensM: Double,
    timeMin: Double,
    apiCalls: Long,
    setsPerLevel: Vector[Int],
    numBlocks: Int,
) {
  def timeSec: Double = timeMin * 60
  def fmt: String =
    f"$dataset%-10s $method%-10s ACC=$acc%.2f FP=$fp%.2f NMI=$nmi%.2f ARI=$ari%.2f " +
    f"cost=$$${costUsd}%.2f tok=${tokensM}%.2fM time=${timeMin}%.1fmin calls=$apiCalls%d"
}

/** Runs one (dataset, method) experiment and scores it against the
  * generator's hidden ground truth.
  */
object Harness {

  sealed trait Method { def name: String }
  case object MCer     extends Method { val name = "LLM-CER" }
  case object MPair    extends Method { val name = "Pairwise" }
  case object MBooster extends Method { val name = "Booster" }
  case object MBq      extends Method { val name = "BQ" }
  case object MCrowd   extends Method { val name = "CrowdER" }

  def score(partition: Vector[Set[Long]], truth: Metrics.Partition): (Double, Double, Double, Double) =
    (Metrics.acc(partition, truth), Metrics.fpMeasure(partition, truth),
     Metrics.nmi(partition, truth), Metrics.ari(partition, truth))

  /** Resolve the per-block function for a method. All methods share the
    * same blocking and the same simulated LLM configuration; each block
    * gets a fresh client, so a block's usage is its client's usage.
    */
  def blockFn(method: Method, params: ERParams, cfg: LLMConfig, fewShot: Int,
              bt: Double, floor: Double): LLMCER.BlockFn = method match {
    case MCer =>
      val p = if (params.coherenceFloor > 0) params
              else params.copy(coherenceFloor = if (floor > 0) floor else 0.8 * bt)
      (bid, recs) => BlockResolver.resolve(bid, recs, new SimulatedLLM(cfg), p, fewShot)
    case MPair =>
      (bid, recs) => Pairwise.resolveBlock(bid, recs, new SimulatedLLM(cfg))
    case MBooster =>
      (bid, recs) => Booster.resolveBlock(bid, recs, new SimulatedLLM(cfg))
    case MBq =>
      (bid, recs) => BQ.resolveBlock(bid, recs, new SimulatedLLM(cfg))
    case MCrowd =>
      (bid, recs) =>
        CrowdER.resolveBlock(bid, recs, new SimulatedLLM(cfg), params.setSize, bt)
  }

  def run(spark: SparkSession, profile: DatasetProfile, method: Method,
          strategy: Blocking.Strategy = Blocking.LSH,
          params: ERParams = ERParams.default,
          cfg: LLMConfig = LLMConfig.default,
          fewShot: Int = 0): ResultRow = {
    val ds = ERGen.records(spark, profile).cache()
    try runOnDataset(spark, profile.name, ds, method, strategy, params, cfg, fewShot)
    finally ds.unpersist()
  }

  def runOnDataset(spark: SparkSession, name: String, ds: Dataset[Record], method: Method,
                   strategy: Blocking.Strategy, params: ERParams, cfg: LLMConfig,
                   fewShot: Int): ResultRow = {
    import spark.implicits._
    val bt    = LLMCER.tunedThreshold(ds, strategy)
    val floor = LLMCER.tunedFloor(ds, strategy)
    val res = LLMCER.runWith(spark, ds, strategy,
                             blockFn(method, params, cfg, fewShot, bt, floor), Some(bt))
    val truth = Metrics.truthOf(ds.map(r => (r.id, r.entityId)).collect())
    val (acc, fp, nmi, ari) = score(res.partition, truth)
    val annotation = if (method == MBq) BQ.AnnotationUsd else 0.0
    ResultRow(name, method.name, acc, fp, nmi, ari,
              res.usage.costUsd + annotation, res.usage.tokens / 1e6,
              res.usage.timeMin, res.usage.apiCalls, res.setsPerLevel, res.numBlocks)
  }
}
