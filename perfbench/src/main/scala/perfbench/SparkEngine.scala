package perfbench

import org.apache.logging.log4j.Level
import org.apache.logging.log4j.core.config.Configurator
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import org.apache.spark.perfbench.ListenerBusDrain
import org.apache.spark.util.CollectionAccumulator
import repro.core._
import repro.spark.SparkKMeans
import scala.jdk.CollectionConverters._

/** Delegates to a registered kernel and records each partition's `newState`
  * time in an accumulator, so Spark fits report their build time too.
  */
final class TimedStrategy(inner: Strategy, buildNs: CollectionAccumulator[java.lang.Long])
    extends Strategy {
  def name: String = inner.name
  def req: Req = inner.req
  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState = {
    val t0 = System.nanoTime()
    val s = inner.newState(points, k, seed)
    buildNs.add(System.nanoTime() - t0)
    s
  }
}

/** `SparkKMeans.fit` on `local[P]` with the Java serializer, as the jobs use. */
final class SparkEngine(w: Workload, initSeeds: IndexedSeq[Long]) extends Engine {
  val master = s"local[${w.partitions}]"
  var points: Array[Array[Double]] = _
  var inits: IndexedSeq[Array[Array[Double]]] = _
  private var spark: SparkSession = _
  private var input: RDD[Array[Double]] = _
  private var probe: SparkProbe = _
  private val localTwin = new LocalEngine(w, initSeeds)

  private def stopSession(): Unit = if (spark != null) {
    spark.stop(); spark = null; input = null; probe = null
  }

  def setup(): SetupObs = {
    stopSession(); points = null; inits = null
    val t0 = System.nanoTime()
    Configurator.setRootLevel(Level.WARN)
    spark = SparkSession.builder()
      .master(master)
      .appName(s"perfbench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.serializer", "org.apache.spark.serializer.JavaSerializer")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val t1 = System.nanoTime()
    val (obs, p, c) = Engine.timedSetup(w, initSeeds)
    points = p; inits = c
    localTwin.points = p; localTwin.inits = c
    val t2 = System.nanoTime()
    input = spark.sparkContext.parallelize(p.toSeq, w.partitions).persist(StorageLevel.MEMORY_ONLY)
    input.count()
    probe = new SparkProbe(input.id)
    spark.sparkContext.addSparkListener(probe)
    val t3 = System.nanoTime()
    obs.copy(sparkNs = (t1 - t0) + (t3 - t2))
  }

  def fit(s: Strategy, init: Int, tracer: Tracer, measureState: Boolean, measureInfo: Boolean): FitObs = {
    val sc = spark.sparkContext
    val acc = sc.collectionAccumulator[java.lang.Long]("newState ns")
    val fitSpan = if (tracer != null) tracer.open("fit", s.name) else -1
    ListenerBusDrain(sc)
    probe.beginFit(tracer, fitSpan)
    val before = probe.snapshot
    val t0 = System.nanoTime()
    try {
      val r = SparkKMeans.fit(spark, input, new TimedStrategy(s, acc), w.k, inits(init), w.iterations,
        w.partitions, Engine.kernelSeed)
      val t1 = System.nanoTime()
      if (tracer != null) tracer.close(fitSpan, t1)
      ListenerBusDrain(sc)
      val counts = probe.snapshot.minus(before)
      probe.endFit()
      val builds = acc.value.asScala.map(_.longValue)
      // The broadcast CentroidInfo is built inside SparkKMeans.fit; its size is
      // taken from the same kernel's local driver loop, outside the timed fit.
      // Spark's own estimate of the cached states is always recorded.
      val infoBytes = if (measureInfo) localTwin.fit(s, init, null, measureInfo = true).infoBytes else 0L
      FitObs.fromResult(r, init, t1 - t0, builds.sum, if (builds.isEmpty) 0L else builds.max,
        r.assignNanos.sum + r.refineNanos.sum, counts.cachedBytes, infoBytes, counts)
    } catch {
      case e: Exception =>
        val t1 = System.nanoTime()
        if (tracer != null) tracer.close(fitSpan, t1)
        ListenerBusDrain(sc)
        probe.endFit()
        FitObs.failed(s.name, init, t1 - t0, w.k, e)
    }
  }

  def env: Seq[(String, String)] = Seq(
    "engine" -> s"SparkKMeans.fit, ${w.partitions} partitions",
    "spark.version" -> org.apache.spark.SPARK_VERSION,
    "spark.master" -> master,
    "spark.serializer" -> "JavaSerializer",
    "spark.log_level" -> "WARN (set by the benchmark)")

  def close(): Unit = stopSession()
}
