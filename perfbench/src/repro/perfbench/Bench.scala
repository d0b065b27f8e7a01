package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.{Dataset, SparkSession}
import org.json4s.{JField, JObject}
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}
import repro.core.{LLMCER, Record}
import repro.data.ERGen
import repro.exp.ResultRow
import repro.jobs.JobSpark
import scala.jdk.CollectionConverters._

/** A named measurement with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Peak heap the program kept over an interval: the most still in use
  * after any collection in it, or at its end after one.
  */
final class HeapWatch {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val emitters = ManagementFactory.getGarbageCollectorMXBeans.asScala
    .collect { case e: NotificationEmitter => e }
  private var peakB = 0L

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: AnyRef): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val after = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
          .getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        HeapWatch.this.synchronized { peakB = math.max(peakB, after) }
      }
  }

  System.gc()
  emitters.foreach(_.addNotificationListener(listener, null, null))

  /** The peak, in MB. */
  def stop(): Double = {
    System.gc()
    val retained = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    emitters.foreach(_.removeNotificationListener(listener))
    synchronized(math.max(peakB, retained) / 1e6)
  }
}

/** The benchmark's entry point: one workload, one seed, one run.
  *
  *   java -cp <classes>:<spark jars> repro.perfbench.Bench \
  *     --workload cora-cer-noblock --seed 1 --seconds 20 --trace 0
  *
  * It prints one line `PERFBENCH_RESULT <json>`; perfbench/run.py turns
  * that into the metric lines and the result the benchmark contract asks
  * for.
  */
object Bench {

  /** Data set-ups per run; setup_s takes the median one. */
  val SetupReps = 3
  /** Warm-up: one resolution of a version of the workload's dataset
    * scaled to this many records, after the first set-up.
    */
  val WarmupRecords = 400

  /** Untraced resolutions timed per run, however long they take. */
  val MinResolutions = 2

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  /** `genS` holds each data set-up's duration. */
  final case class Setup(spark: SparkSession, ds: Dataset[Record], records: Vector[Record],
                         sparkUpS: Double, genS: Vector[Double], warmupS: Double) {
    /** setup_s: process start → Spark up, plus the median data set-up. */
    def setupS: Double = sparkUpS + Stats.median(genS)
  }

  final case class Sample(wallNs: Long, cpuNs: Long, res: Resolution)

  final case class Loop(samples: Vector[Sample], attempted: Int, failures: Vector[String],
                        heapPeakMb: Double) {
    def failed: Int = attempted - samples.size
  }

  def main(argv: Array[String]): Unit = {
    SelfCheck.run()
    val args = parse(argv)
    val code =
      try { println("PERFBENCH_RESULT " + compact(render(run(args)))); 0 }
      catch { case e: Exception => e.printStackTrace(); 1 }
      finally SparkSession.getDefaultSession.foreach(_.stop())
    sys.exit(code)
  }

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(Workloads.byName(arg("workload")), arg("seed").toLong, arg("seconds").toDouble,
         arg("trace") == "1")
  }

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def cpuNs(): Long = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  /** Process start → Spark up, then `SetupReps` rounds of generating,
    * embedding, caching and counting the dataset; the warm-up follows the
    * first, cold, round so that the others are warm.
    */
  def setUp(a: Args): Setup = {
    val spark    = JobSpark.session("perfbench")
    val sparkUpS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    var ds: Dataset[Record] = null
    var warmupS = 0.0
    val genS = Vector.tabulate(SetupReps) { i =>
      if (ds != null) ds.unpersist(blocking = true)
      val t0 = System.nanoTime()
      ds = a.workload.records(spark, a.seed).cache()
      ds.count()
      val g = secs(t0)
      if (i == 0) {
        val w0 = System.nanoTime()
        warmUp(spark, a.workload)
        warmupS = secs(w0)
      }
      g
    }
    Setup(spark, ds, ds.collect().toVector.sortBy(_.id), sparkUpS, genS, warmupS)
  }

  def warmUp(spark: SparkSession, w: Workload): Unit = {
    val ds = ERGen.records(spark, w.base.scaledTo(WarmupRecords)).cache()
    try Resolve(spark, w, ds, Resolve.programFn(w), NoTrace)
    finally ds.unpersist(blocking = true)
  }

  /** Untraced resolutions, back to back, for `seconds`: the first
    * `minRuns` always run, a later one only if, taking as long as the
    * previous one, it would end within them. Each one's `ResultRow` must
    * equal `expected`, or else the first one's.
    */
  def loop(spark: SparkSession, w: Workload, s: Setup, seconds: Double, minRuns: Int,
           expected: Option[ResultRow] = None): Loop = {
    val samples  = Vector.newBuilder[Sample]
    val failures = Vector.newBuilder[String]
    var attempted = 0
    var first = expected
    val heap = new HeapWatch
    val t0   = System.nanoTime()
    var w0   = t0
    do {
      attempted += 1
      val c0 = cpuNs()
      w0 = System.nanoTime()
      try {
        val r      = Resolve(spark, w, s.ds, Resolve.programFn(w), NoTrace)
        val sample = Sample(System.nanoTime() - w0, cpuNs() - c0, r)
        val errs   = Checks.partition(r.partition, s.records) ++
          Checks.same("ResultRow across repetitions", first.getOrElse(r.row), r.row)
        if (first.isEmpty) first = Some(r.row)
        if (errs.isEmpty) samples += sample else failures ++= errs.map(e => s"resolution $attempted: $e")
      } catch { case e: Exception => failures += s"resolution $attempted threw $e" }
    } while (attempted < minRuns || secs(t0) + (System.nanoTime() - w0) / 1e9 <= seconds)
    Loop(samples.result(), attempted, failures.result(), heap.stop())
  }

  def endToEnd(s: Setup, l: Loop): Vector[Metric] = {
    val n = s.records.size
    val r = l.samples.head.res
    Vector(
      Metric("records_per_s", Stats.median(l.samples.map(x => n / (x.wallNs / 1e9))), "records/s"),
      Metric("setup_s", s.setupS, "s"),
      Metric("cpu_s", Stats.median(l.samples.map(_.cpuNs / 1e9)), "s"),
      Metric("acc", r.row.acc, "ratio"),
      Metric("fp", r.row.fp, "ratio"),
      Metric("api_calls", r.usage.apiCalls.toDouble, "calls"),
      Metric("api_tokens", r.usage.tokens.toDouble, "tokens"),
      Metric("api_usd", r.row.costUsd, "USD"),
      Metric("success_frac", l.samples.size.toDouble / l.attempted, "ratio"),
    )
  }

  final case class Traced(metrics: Vector[Metric], after: Loop, failures: Vector[String], extra: JObject)

  /** One traced resolution between two untraced ones (the last of the
    * loop's, and one run straight after it): spans around each layer call, Spark
    * jobs attributed to layers by call site, block function and LLM
    * client timed inside the tasks; then the counting pass.
    */
  def traced(spark: SparkSession, w: Workload, s: Setup, l: Loop): Traced = {
    val sc       = spark.sparkContext
    val cores    = sc.defaultParallelism
    val listener = new JobListener
    val stats    = sc.collectionAccumulator[BlockStat]("perfbench.blocks")
    val rec      = new SpanRecorder
    val fnFor: (Double, Double) => LLMCER.BlockFn = (bt, floor) => {
      (bid, recs) =>
        val (res, st) = Probes.probe(w, bt, floor, mdg = false)(bid, recs)
        stats.add(st)
        res
    }
    PerfbenchBus.drain(sc)
    sc.addSparkListener(listener)
    val anchorNs = System.nanoTime()
    val anchorMs = System.currentTimeMillis()
    val r =
      try rec("resolution")(Resolve(spark, w, s.ds, fnFor, rec))
      finally { PerfbenchBus.drain(sc); sc.removeSparkListener(listener) }
    val after = loop(spark, w, s, 0, 1, Some(l.samples.head.res.row))
    def nsOf(ms: Long): Long = anchorNs + (ms - anchorMs) * 1000000L

    val callSpans = rec.spans
    def span(name: String): Span = callSpans.find(_.name == name).get
    val root    = span("resolution")
    val runWith = span("core.run_with")
    val jobs    = listener.jobs.filter(_.endMs >= 0)
    def inRunWith(j: listener.Job) = nsOf(j.startMs) >= runWith.startNs - 1000000L
    val resolveJobs  = jobs.filter(j => j.layer == "core" && inRunWith(j))
    val blockingJobs = jobs.filter(j => j.layer == "blocking" && inRunWith(j))
    require(resolveJobs.nonEmpty, "no resolve job seen inside runWith; jobs: " +
      jobs.map(j => s"${j.id} ${j.layer} ${j.callSite}").mkString("; "))
    val resolveStart = math.max(runWith.startNs, nsOf(resolveJobs.map(_.startMs).min))
    val resolveEnd   = math.min(runWith.endNs, nsOf(resolveJobs.map(_.endMs).max))
    val phases = Vector(
      Span("blocking", Some(runWith.name), runWith.startNs, resolveStart),
      Span("core.resolve_stage", Some(runWith.name), resolveStart, resolveEnd),
      Span("core.merge", Some(runWith.name), resolveEnd, runWith.endNs))
    val jobSpans = jobs.map { j =>
      val (a, b) = (nsOf(j.startMs), nsOf(j.endMs))
      val parent = (phases ++ callSpans.filterNot(_ == root) ++ Vector(root))
        .find(p => a >= p.startNs - 1000000L && a < p.endNs).map(_.name)
      Span(s"job.${j.id}", parent, a, b)
    }
    val spans = callSpans ++ phases ++ jobSpans
    def dur(name: String): Double = spans.find(_.name == name).get.durNs / 1e9

    val blocks = stats.value.asScala.toVector
    val counts = Counting(spark, w, s, r, blocks)
    val sizes  = blocks.map(_.ids.size.toDouble)
    val deciles = Stats.quantiles(sizes, 10)
    val fnS     = blocks.map(_.fnNs).sum / 1e9
    val llmS    = blocks.map(_.llmNs).sum / 1e9
    val calls   = blocks.map(_.calls).sum
    val execCpuS = jobs.map(_.cpuNs).sum / 1e9
    // The untraced resolutions either side of the traced one cancel the
    // JVM's warming over the run.
    val untracedWallS = (l.samples ++ after.samples).map(_.wallNs / 1e9) match {
      case ws if ws.size >= 2 => (ws(ws.size - 2) + ws.last) / 2
      case ws => ws.last
    }
    val levels = r.row.setsPerLevel
    val mb = 1e6
    val metrics = Vector(
      Metric("blocking.tune_s", dur("blocking.tune"), "s"),
      Metric("core.tune_floor_s", dur("core.tune_floor"), "s"),
      Metric("blocking.s", dur("blocking"), "s"),
      Metric("blocking.job_s", Spans.coveredNs(runWith.startNs, runWith.endNs,
        blockingJobs.map(j => (nsOf(j.startMs), nsOf(j.endMs)))) / 1e9, "s"),
      Metric("blocking.components_s", counts.componentsS, "s"),
      Metric("blocking.shuffle_write_mb", blockingJobs.map(_.shuffleWriteB).sum / mb, "MB"),
      Metric("blocking.candidate_pairs", counts.candidatePairs.toDouble, "pairs"),
      Metric("blocking.edges", counts.edges.toDouble, "pairs"),
      Metric("blocking.edge_yield", counts.edgeYield, "ratio"),
      Metric("blocking.edge_recall", counts.edgeRecall, "ratio"),
      Metric("blocking.blocks", blocks.size.toDouble, "count"),
      Metric("blocking.block_size_p50", deciles(4), "records"),
      Metric("blocking.block_size_p90", deciles(8), "records"),
      Metric("blocking.block_size_max", sizes.max, "records"),
      Metric("core.resolve_stage_s", dur("core.resolve_stage"), "s"),
      Metric("core.block_fn_s", fnS, "s"),
      Metric("core.block_fn_self_s", fnS - llmS, "s"),
      Metric("core.block_fn_max_s", blocks.map(_.fnNs).max / 1e9, "s"),
      Metric("core.stage_util", fnS / (dur("core.resolve_stage") * cores), "ratio"),
      Metric("core.merge_s", dur("core.merge"), "s"),
      Metric("core.levels", levels.size.toDouble, "count"),
      Metric("core.sets_l0", levels.headOption.getOrElse(0).toDouble, "calls"),
      Metric("core.sets_last", levels.lastOption.getOrElse(0).toDouble, "calls"),
      Metric("llm.calls", calls.toDouble, "calls"),
      Metric("llm.call_s", llmS, "s"),
      Metric("llm.records_per_call", if (calls == 0) 0.0 else blocks.map(_.callRecords).sum.toDouble / calls, "records"),
      Metric("llm.mdg_reject_frac", if (counts.setCalls == 0) 0.0 else counts.mdgFlagged.toDouble / counts.setCalls, "ratio"),
      Metric("exp.truth_s", dur("exp.truth"), "s"),
      Metric("exp.score_s", dur("exp.score"), "s"),
      Metric("exp.pred_clusters", r.partition.size.toDouble, "count"),
      Metric("exp.truth_clusters", r.truthClusters.toDouble, "count"),
      Metric("data.gen_s", Stats.median(s.genS), "s"),
      Metric("spark.up_s", s.sparkUpS, "s"),
      Metric("spark.heap_peak_mb", l.heapPeakMb, "MB"),
      Metric("spark.jobs", jobs.size.toDouble, "count"),
      Metric("spark.tasks", jobs.map(_.tasks).sum.toDouble, "count"),
      Metric("spark.shuffle_write_mb", jobs.map(_.shuffleWriteB).sum / mb, "MB"),
      Metric("spark.gc_s", jobs.map(_.gcMs).sum / 1e3, "s"),
      Metric("spark.executor_cpu_s", execCpuS, "s"),
      Metric("spark.cpu_util", execCpuS / (root.durNs / 1e9 * cores), "ratio"),
      Metric("trace.wall_s", root.durNs / 1e9, "s"),
      Metric("trace.coverage", Spans.coverage(root, spans), "ratio"),
      Metric("trace.overhead_frac", root.durNs / 1e9 / untracedWallS - 1, "ratio"),
    )
    val failures =
      Checks.partition(r.partition, s.records) ++
      Checks.same("traced ResultRow vs untraced", l.samples.head.res.row, r.row) ++
      Checks.same("llm.calls vs api_calls", r.usage.apiCalls, calls)
    val extra =
      ("spans" -> spans.map(sp =>
        ("name" -> sp.name) ~ ("parent" -> sp.parent) ~
        ("start_s" -> (sp.startNs - root.startNs) / 1e9) ~ ("dur_s" -> sp.durNs / 1e9) ~
        ("self_s" -> Spans.selfNs(sp, spans) / 1e9))) ~
      ("jobs" -> jobs.map(j =>
        ("id" -> j.id) ~ ("layer" -> j.layer) ~ ("call_site" -> j.callSite) ~
        ("start_s" -> (nsOf(j.startMs) - root.startNs) / 1e9) ~ ("dur_s" -> (j.endMs - j.startMs) / 1e3) ~
        ("tasks" -> j.tasks) ~ ("executor_cpu_s" -> j.cpuNs / 1e9) ~ ("gc_s" -> j.gcMs / 1e3) ~
        ("shuffle_write_mb" -> j.shuffleWriteB / mb)))
    Traced(metrics, after, failures, extra)
  }

  private def json(ms: Vector[Metric]): JObject =
    JObject(ms.map(m => JField(m.name, ("value" -> m.value) ~ ("unit" -> m.unit))).toList)

  def run(a: Args): JObject = {
    val w     = a.workload
    val s     = setUp(a)
    val spark = s.spark
    val l0    = System.nanoTime()
    val l     = loop(spark, w, s, a.seconds, MinResolutions)
    val loopS = secs(l0)
    if (l.samples.isEmpty)
      throw new IllegalStateException("no resolution passed its checks: " + l.failures.mkString("; "))
    val e2e = endToEnd(s, l)
    val t0  = System.nanoTime()
    val t   = if (a.trace) Some(traced(spark, w, s, l)) else None
    val tracedS = secs(t0)
    val attempted = l.attempted + t.fold(0)(1 + _.after.attempted)
    val failed    = l.failed + t.fold(0)(t => (if (t.failures.nonEmpty) 1 else 0) + t.after.failed)
    val failures  = l.failures ++ t.toVector.flatMap(t => t.failures ++ t.after.failures)
    val metrics   = t.map(_.metrics).getOrElse(e2e)
    val sc = spark.sparkContext
    val result =
      ("workload" -> w.name) ~ ("seed" -> a.seed) ~ ("trace" -> (if (a.trace) 1 else 0)) ~
      ("records" -> s.records.size) ~ ("seconds" -> a.seconds) ~
      ("correct" -> (failed == 0)) ~ ("attempted" -> attempted) ~ ("failed" -> failed) ~
      ("failures" -> failures) ~
      ("metrics" -> json(metrics)) ~
      ("end_to_end" -> json(e2e)) ~
      ("samples" ->
        ("resolutions" -> l.samples.size) ~
        ("wall_s" -> l.samples.map(_.wallNs / 1e9)) ~
        ("cpu_s" -> l.samples.map(_.cpuNs / 1e9)) ~
        ("spark_up_s" -> s.sparkUpS) ~
        ("gen_s" -> s.genS)) ~
      ("phases_s" ->
        ("warmup" -> s.warmupS) ~ ("loop" -> loopS) ~ ("traced" -> tracedS)) ~
      ("result_row" -> l.samples.head.res.row.toString) ~
      ("bt" -> l.samples.head.res.bt) ~ ("mdg_floor" -> l.samples.head.res.floor) ~
      ("env" ->
        ("spark_master" -> sc.master) ~ ("cores" -> sc.defaultParallelism) ~
        ("spark_version" -> spark.version) ~
        ("java_version" -> System.getProperty("java.version")) ~
        ("java_vm" -> System.getProperty("java.vm.name")) ~
        ("max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6))
    t.fold(result)(t => JObject(result.obj ++ t.extra.obj))
  }
}
