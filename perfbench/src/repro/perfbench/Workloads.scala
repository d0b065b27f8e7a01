package repro.perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions.rand
import repro.baselines.{BQ, Pairwise}
import repro.blocking.Blocking
import repro.core._
import repro.data.{DatasetProfile, ERGen}
import repro.exp.{Harness, ResultRow}
import repro.llm.{LLMClient, LLMConfig}

/** A workload: one dataset profile, resolved by one method with one
  * blocking strategy. The seed reaches the program only through the
  * generated records.
  */
final case class Workload(name: String, method: Harness.Method,
                          strategy: Blocking.Strategy, base: DatasetProfile) {

  /** The profile's records, spread over the generator's partitions in an
    * order drawn from `seed`. Every seed hands the program the same
    * records, so a run's outputs must not depend on it; only the physical
    * layout of the input changes. Varying the records themselves moves the
    * quality and API metrics by more than any bound the benchmark could
    * hold: reseeding the generator moved API calls on AS by a sixth
    * between quartiles over five seeds, and relabelling the entities moved
    * ACC on Cora by a sixth and its records/s by a third.
    */
  def records(spark: SparkSession, seed: Long): Dataset[Record] = {
    val ds = ERGen.records(spark, base)
    ds.repartition(ds.rdd.getNumPartitions, rand(seed))
  }
}

object Workloads {

  // Why each workload is here is recorded in BENCHMARK.json.
  val all: Vector[Workload] = Vector(
    Workload("alaska2k-cer-lsh", Harness.MCer, Blocking.LSH, DatasetProfile.alaska.scaledTo(2000)),
    Workload("cora-cer-noblock", Harness.MCer, Blocking.NoBlocking, DatasetProfile.cora),
    Workload("as-pairwise-filter", Harness.MPair, Blocking.Filter, DatasetProfile.as),
  )

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name (have ${all.map(_.name).mkString(", ")})"))
}

/** What one resolution returns to the benchmark. */
final case class Resolution(row: ResultRow, partition: Vector[Set[Long]], usage: Usage,
                            truthClusters: Int, bt: Double, floor: Double)

object Resolve {

  /** The per-block function the program itself uses for a method. */
  def programFn(w: Workload)(bt: Double, floor: Double): LLMCER.BlockFn =
    Harness.blockFn(w.method, ERParams.default, LLMConfig.default, 0, bt, floor)

  /** One end-to-end resolution, composed call for call as
    * `Harness.runOnDataset` composes it, with each call into a layer
    * wrapped in a span of `trace`.
    */
  def apply(spark: SparkSession, w: Workload, ds: Dataset[Record],
            fnFor: (Double, Double) => LLMCER.BlockFn, trace: Tracer): Resolution = {
    import spark.implicits._
    val bt    = trace("blocking.tune")(LLMCER.tunedThreshold(ds, w.strategy))
    val floor = trace("core.tune_floor")(LLMCER.tunedFloor(ds, w.strategy))
    val res   = trace("core.run_with")(LLMCER.runWith(spark, ds, w.strategy, fnFor(bt, floor), Some(bt)))
    val truth = trace("exp.truth")(Metrics.truthOf(ds.map(r => (r.id, r.entityId)).collect()))
    val (acc, fp, nmi, ari) = trace("exp.score")(Harness.score(res.partition, truth))
    val annotation = if (w.method == Harness.MBq) BQ.AnnotationUsd else 0.0
    val row = ResultRow(w.base.name, w.method.name, acc, fp, nmi, ari,
                        res.usage.costUsd + annotation, res.usage.tokens / 1e6,
                        res.usage.timeMin, res.usage.apiCalls, res.setsPerLevel, res.numBlocks)
    Resolution(row, res.partition, res.usage, truth.size, bt, floor)
  }
}

/** Per-block numbers a traced block function sends back to the benchmark. */
final case class BlockStat(blockId: Long, ids: Vector[Long], fnNs: Long, llmNs: Long,
                           calls: Long, setCalls: Long, callRecords: Long, mdgFlagged: Long)

/** Delegating LLM client that times and counts every call. With
  * `mdgFloor` set it also asks MDG whether it would flag each set answer.
  */
final class ProbeLLM(inner: LLMClient, mdgFloor: Option[Double]) extends LLMClient with Serializable {
  var ns, calls, setCalls, callRecords, mdgFlagged = 0L

  private def timed[T](records: Int)(body: => T): T = {
    val t0 = System.nanoTime()
    try body
    finally { ns += System.nanoTime() - t0; calls += 1; callRecords += records }
  }

  override def clusterSet(set: Vector[Record], fewShot: Int): Clustering = {
    setCalls += 1
    val answer = timed(set.size)(inner.clusterSet(set, fewShot))
    mdgFloor.foreach(f => if (MDG.misclustered(answer, f).nonEmpty) mdgFlagged += 1)
    answer
  }
  override def matchPair(a: Record, b: Record, fewShot: Int): Boolean =
    timed(2)(inner.matchPair(a, b, fewShot))
  override def batchMatch(pairs: Vector[(Record, Record)], fewShot: Int): Vector[Boolean] =
    timed(2 * pairs.size)(inner.batchMatch(pairs, fewShot))
  override def usage: Usage = inner.usage
}

object Probes {

  /** `Harness.blockFn` for the benchmark's methods, with the LLM client
    * left open so a probe can wrap it. The traced run checks that this
    * gives the same `ResultRow` as the program's own block function.
    */
  def resolver(w: Workload, bt: Double, floor: Double): (Long, Vector[Record], LLMClient) => BlockResult =
    w.method match {
      case Harness.MCer =>
        val p = ERParams.default.copy(coherenceFloor = mdgFloor(bt, floor))
        (bid, recs, llm) => BlockResolver.resolve(bid, recs, llm, p, 0)
      case Harness.MPair =>
        (bid, recs, llm) => Pairwise.resolveBlock(bid, recs, llm)
      case m => throw new IllegalArgumentException(s"no probe for method ${m.name}")
    }

  def mdgFloor(bt: Double, floor: Double): Double = if (floor > 0) floor else 0.8 * bt

  /** Resolve one block through a probe; returns the result and its stats. */
  def probe(w: Workload, bt: Double, floor: Double, mdg: Boolean)
           (bid: Long, recs: Vector[Record]): (BlockResult, BlockStat) = {
    val llm = new ProbeLLM(new repro.llm.SimulatedLLM(LLMConfig.default),
                           if (mdg) Some(mdgFloor(bt, floor)) else None)
    val t0  = System.nanoTime()
    val res = resolver(w, bt, floor)(bid, recs, llm)
    (res, BlockStat(bid, recs.map(_.id), System.nanoTime() - t0, llm.ns, llm.calls,
                    llm.setCalls, llm.callRecords, llm.mdgFlagged))
  }
}
