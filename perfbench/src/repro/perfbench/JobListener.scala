package repro.perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import scala.collection.mutable

/** Records each Spark job of the traced resolution: its wall interval,
  * the layer whose code submitted it, and its tasks' metrics.
  *
  * Adaptive query execution submits a query's stages as jobs from its own
  * threads, whose call sites hold no program frame. Such a job carries
  * its SQL execution id, and the execution's start event holds the call
  * site of the program's action, so a job takes its execution's call site.
  */
final class JobListener extends SparkListener {

  final class Job(val id: Int, val startMs: Long, val layer: String, val callSite: String) {
    var endMs         = -1L
    var tasks         = 0L
    var cpuNs         = 0L
    var gcMs          = 0L
    var shuffleWriteB = 0L
  }

  private val byId       = mutable.LinkedHashMap.empty[Int, Job]
  private val stageToJob = mutable.Map.empty[Int, Job]
  private val execSite   = mutable.Map.empty[Long, String]

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case x: SparkListenerSQLExecutionStart =>
      synchronized(execSite(x.executionId) = x.rootExecutionId.flatMap(execSite.get).getOrElse(x.details))
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val exec = Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
    val site = exec.flatMap(id => execSite.get(id.toLong))
      .orElse(e.stageInfos.sortBy(_.stageId).lastOption.map(_.details)).getOrElse("")
    val job  = new Job(e.jobId, e.time, Layers.ofCallSite(site),
                       site.linesIterator.find(_.startsWith("repro.")).getOrElse(""))
    byId(e.jobId) = job
    e.stageIds.foreach(s => if (!stageToJob.contains(s)) stageToJob(s) = job)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    byId.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (job <- stageToJob.get(e.stageId); m <- Option(e.taskMetrics)) {
      job.tasks += 1
      job.cpuNs += m.executorCpuTime
      job.gcMs  += m.jvmGCTime
      job.shuffleWriteB += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def jobs: Vector[Job] = synchronized(byId.values.toVector)
}
