package perfbench

import java.lang.management.ManagementFactory
import repro.core._
import repro.data.Datasets
import scala.collection.mutable.ArrayBuffer

/** Spark listener totals attributed to one fit. */
final case class SparkCounts(
    jobs: Long = 0, stages: Long = 0, tasks: Long = 0, taskFailures: Long = 0,
    shuffleWriteBytes: Long = 0, resultBytes: Long = 0, taskRunMs: Long = 0,
    cachedBytes: Long = 0) {
  def minus(o: SparkCounts): SparkCounts =
    SparkCounts(jobs - o.jobs, stages - o.stages, tasks - o.tasks, taskFailures - o.taskFailures,
      shuffleWriteBytes - o.shuffleWriteBytes, resultBytes - o.resultBytes,
      taskRunMs - o.taskRunMs, cachedBytes)
}

/** Everything observed about one fit (`newState` + `fitStates`, or one
  * `SparkKMeans.fit`). Times are nanoseconds; `error` is null on success.
  */
final case class FitObs(
    kernel: String,
    init: Int,          // index into the run's k-means++ inits
    fitNs: Long,
    buildNs: Long,      // newState, summed over partitions
    buildMaxNs: Long,   // newState of the slowest partition
    stepNs: Long,       // local: wrapped PartitionState.step; Spark: slowest-partition assign+refine
    assignNs: Long,
    refineNs: Long,
    iterations: Int,
    sse: Double,
    counters: Vector[Long], // dist, point, node, bound access, bound update, moved
    movedPerIter: Vector[Long],
    n: Long,
    k: Int,
    stateBytes: Long,   // retained partition state (measured fits only)
    infoBytes: Long,    // Java-serialized CentroidInfo of iteration 2 (measured fits only)
    spark: SparkCounts,
    error: String) {
  def ok: Boolean = error == null
  /** What must repeat exactly for a fixed seed. */
  def signature: String = s"iters=$iterations counters=${counters.mkString(",")} moved=${movedPerIter.mkString(",")}"
}

object FitObs {
  val counterNames: Seq[String] =
    Seq("dist", "point_access", "node_access", "bound_access", "bound_update", "moved")

  def fromResult(r: FitResult, init: Int, fitNs: Long, buildNs: Long, buildMaxNs: Long, stepNs: Long,
                 stateBytes: Long, infoBytes: Long, spark: SparkCounts): FitObs = {
    val m = r.metrics
    FitObs(r.strategy, init, fitNs, buildNs, buildMaxNs, stepNs, r.assignNanos.sum, r.refineNanos.sum,
      r.iterations, r.sse,
      Vector(m.dist, m.pointAccess, m.nodeAccess, m.boundAccess, m.boundUpdate, r.movedPerIter.sum),
      r.movedPerIter.toVector, r.n, r.k, stateBytes, infoBytes, spark, null)
  }

  def failed(kernel: String, init: Int, fitNs: Long, k: Int, e: Throwable): FitObs =
    FitObs(kernel, init, fitNs, 0, 0, 0, 0, 0, 0, Double.NaN, Vector.fill(6)(0L), Vector.empty, 0, k, 0, 0,
      SparkCounts(), s"${e.getClass.getSimpleName}: ${e.getMessage}")
}

/** Timings of one set-up: data generation, the run's k-means++ inits and,
  * on Spark, the session plus the cached input RDD.
  */
final case class SetupObs(generateNs: Long, initNs: Long, sparkNs: Long) {
  def totalNs: Long = generateNs + initNs + sparkNs
}

/** How a workload's fits are executed. `setup` may be called several times;
  * the last call's data is what `fit` uses. `fit` starts from `inits(init)`.
  */
trait Engine {
  def setup(): SetupObs
  def points: Array[Array[Double]]
  def inits: IndexedSeq[Array[Array[Double]]]
  def fit(s: Strategy, init: Int, tracer: Tracer, measureState: Boolean = false, measureInfo: Boolean = false): FitObs
  def env: Seq[(String, String)]
  def close(): Unit
}

object Engine {
  /** Kernel seed handed to `newState` and the driver loop (Runner's default). */
  val kernelSeed = 17L

  def forcedGc(): Unit = System.gc()

  def heapUsed(): Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  private final class CountingStream extends java.io.OutputStream {
    var n = 0L
    override def write(b: Int): Unit = n += 1
    override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
  }

  def serializedSize(o: AnyRef): Long = {
    val counter = new CountingStream
    val out = new java.io.ObjectOutputStream(counter)
    out.writeObject(o); out.close()
    counter.n
  }

  /** The analogs stand in for fixed real datasets, so the data seed is the
    * one every table bench uses; the run's seed drives k-means++.
    */
  val dataSeed = 42L

  /** k-means++ seeds available to one run seed; disjoint between run seeds. */
  val candidatesPerSeed = 64

  /** Candidates always tried, so that every run does the same untimed work,
    * and warms the JIT the same way, before its set-up.
    */
  val minCandidates = 16

  /** Picks the run's k-means++ inits and fits Lloyd on each, untimed.
    * Candidates `seed·64 + j` are tried in order, and the first `w.inits`
    * whose Lloyd fit runs all `w.iterations` iterations are kept: every fit of
    * every run then does the same number of iterations, so runs with
    * different seeds differ in where the centroids start, not in how many
    * iterations are timed. Returns the kept seeds and their Lloyd fits.
    */
  def chooseInits(w: Workload, seed: Long): (IndexedSeq[Long], IndexedSeq[FitResult]) = {
    val pts = Datasets.generate(w.spec, frac = w.frac, seed = dataSeed)
    val kept = ArrayBuffer.empty[(Long, FitResult)]
    var j = 0
    while (j < candidatesPerSeed && (j < minCandidates || kept.length < w.inits)) {
      val s = seed * candidatesPerSeed + j
      val r = Runner.fitLocal(Strategies.lloyd, pts, w.k, Init.kmeansPlusPlus(pts, w.k, s), w.iterations, kernelSeed)
      if (r.iterations == w.iterations && kept.length < w.inits) kept += s -> r
      j += 1
    }
    require(kept.length == w.inits,
      s"only ${kept.length} of $candidatesPerSeed k-means++ inits run ${w.iterations} Lloyd iterations on ${w.name}")
    kept.toIndexedSeq.unzip
  }

  def timedSetup(w: Workload, initSeeds: IndexedSeq[Long]): (SetupObs, Array[Array[Double]], IndexedSeq[Array[Array[Double]]]) = {
    val t0 = System.nanoTime()
    val pts = Datasets.generate(w.spec, frac = w.frac, seed = dataSeed)
    val t1 = System.nanoTime()
    val inits = initSeeds.map(Init.kmeansPlusPlus(pts, w.k, _))
    val t2 = System.nanoTime()
    (SetupObs(t1 - t0, t2 - t1, 0L), pts, inits)
  }
}

/** One in-process partition through `Runner.fitStates`. */
final class LocalEngine(w: Workload, initSeeds: IndexedSeq[Long]) extends Engine {
  var points: Array[Array[Double]] = _
  var inits: IndexedSeq[Array[Array[Double]]] = _

  def setup(): SetupObs = {
    points = null; inits = null
    val (obs, p, c) = Engine.timedSetup(w, initSeeds)
    points = p; inits = c
    obs
  }

  def fit(s: Strategy, init: Int, tracer: Tracer, measureState: Boolean, measureInfo: Boolean): FitObs = {
    val heapBefore = if (measureState) { Engine.forcedGc(); Engine.heapUsed() } else 0L
    var stepNs = 0L
    var infoBytes = 0L
    val fitSpan = if (tracer != null) tracer.open("fit", s.name) else -1
    val t0 = System.nanoTime()
    try {
      val nsSpan = if (tracer != null) tracer.open("new_state", s.name) else -1
      val state = s.newState(points, w.k, Engine.kernelSeed)
      val t1 = System.nanoTime()
      if (tracer != null) tracer.close(nsSpan, t1)
      var iterStart = t1
      val mkStep = (states: Seq[PartitionState]) => {
        val st = states.head
        (info: CentroidInfo) => {
          val iterSpan = if (tracer != null) tracer.open("iteration", s"${info.iter}", iterStart) else -1
          val stepSpan = if (tracer != null) tracer.open("step", s"${info.iter}") else -1
          val a = System.nanoTime()
          val p = st.step(info)
          val b = System.nanoTime()
          stepNs += b - a
          if (tracer != null) { tracer.close(stepSpan, b); tracer.close(iterSpan, b) }
          if (measureInfo && info.iter == 2) infoBytes = Engine.serializedSize(info)
          iterStart = System.nanoTime()
          p
        }
      }
      val r = Runner.fitStates(s, Seq(state), mkStep, w.k, inits(init), w.iterations, Engine.kernelSeed)
      val t2 = System.nanoTime()
      if (tracer != null) tracer.close(fitSpan, t2)
      val stateBytes = if (measureState) { Engine.forcedGc(); Engine.heapUsed() - heapBefore } else 0L
      java.lang.ref.Reference.reachabilityFence(state) // keep the state alive through the measurement
      // Serializing CentroidInfo and the forced GCs make measured fits slower;
      // they belong to the warm-up and are never timed.
      FitObs.fromResult(r, init, t2 - t0, t1 - t0, t1 - t0, stepNs, stateBytes, infoBytes, SparkCounts())
    } catch {
      case e: Exception =>
        val t2 = System.nanoTime()
        if (tracer != null) tracer.close(fitSpan, t2)
        FitObs.failed(s.name, init, t2 - t0, w.k, e)
    }
  }

  def env: Seq[(String, String)] = Seq("engine" -> "Runner.fitStates, one partition, one thread")
  def close(): Unit = ()
}
