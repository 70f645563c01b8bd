package perfbench

import org.apache.spark.Success
import org.apache.spark.scheduler._
import org.apache.spark.storage.RDDBlockId
import scala.collection.mutable

/** Listener registered on the benchmark's session. It keeps running totals
  * of jobs, stages, tasks, task failures, shuffle and result bytes and task
  * run time, the memory size Spark estimates for cached RDD blocks other
  * than the input's, and, while a traced fit is open, job and stage spans.
  * Events arrive on the listener-bus thread; readers drain the bus first.
  */
final class SparkProbe(inputRddId: Int) extends SparkListener {
  private var totals = SparkCounts()
  private val cached = mutable.Map.empty[RDDBlockId, Long]

  @volatile private var tracer: Tracer = null
  @volatile private var fitSpan: Int = -1
  private val jobSpans = mutable.Map.empty[Int, Int]   // job id -> span id
  private val stageJob = mutable.Map.empty[Int, Int]   // stage id -> job id

  /** Starts attributing events to a new fit (cached-state sizes are per fit). */
  def beginFit(t: Tracer, span: Int): Unit = synchronized {
    cached.clear(); jobSpans.clear(); stageJob.clear()
    tracer = t; fitSpan = span
  }

  def endFit(): Unit = synchronized { tracer = null; fitSpan = -1 }

  def snapshot: SparkCounts = synchronized(totals.copy(cachedBytes = cached.values.sum))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    totals = totals.copy(jobs = totals.jobs + 1)
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
    if (tracer != null && fitSpan >= 0) {
      val t = Tracer.fromEpochMs(e.time)
      jobSpans(e.jobId) = tracer.add("spark_job", s"job ${e.jobId}", fitSpan, t, -1L)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (tracer != null) jobSpans.get(e.jobId).foreach(id => tracer.setEnd(id, Tracer.fromEpochMs(e.time)))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    totals = totals.copy(stages = totals.stages + 1)
    val info = e.stageInfo
    if (tracer != null)
      for {
        job <- stageJob.get(info.stageId)
        parent <- jobSpans.get(job)
        start <- info.submissionTime
        end <- info.completionTime
      } tracer.add("spark_stage", s"stage ${info.stageId}", parent,
          Tracer.fromEpochMs(start), Tracer.fromEpochMs(end))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val failed = if (e.reason == Success) 0 else 1
    val m = e.taskMetrics
    totals =
      if (m == null) totals.copy(tasks = totals.tasks + 1, taskFailures = totals.taskFailures + failed)
      else totals.copy(
        tasks = totals.tasks + 1,
        taskFailures = totals.taskFailures + failed,
        shuffleWriteBytes = totals.shuffleWriteBytes + m.shuffleWriteMetrics.bytesWritten,
        resultBytes = totals.resultBytes + m.resultSize,
        taskRunMs = totals.taskRunMs + m.executorRunTime)
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    info.blockId match {
      case b: RDDBlockId if b.rddId != inputRddId && info.memSize > 0 => cached(b) = info.memSize
      case _ =>
    }
  }
}
