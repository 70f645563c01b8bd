package repro.spark

import org.apache.spark.scheduler._
import repro.core._
import repro.data.Datasets
import repro.{Oracle, SparkSpec}
import scala.collection.mutable

/** The distributed path must agree with the single-partition path, and the
  * Catalyst refinement must agree with DuckDB.
  */
class SparkKMeansSpec extends SparkSpec {

  private lazy val pts = TestData.mixture(800, 4, 10, 0.04, 81L)
  private val k = 12
  private lazy val init = Init.kmeansPlusPlus(pts, k, 82L)

  private def sparkFit(s: Strategy, parts: Int): FitResult = {
    val rdd = spark.sparkContext.parallelize(pts.toSeq, parts)
    SparkKMeans.fit(spark, rdd, s, k, init, maxIters = 8, numPartitions = parts)
  }

  for (s <- Strategies.byName.toSeq.sortBy(_._1).map(_._2)) {
    test(s"Spark ${s.name} over 4 partitions equals the local runner") {
      val local = Runner.fitLocal(s, pts, k, init, maxIters = 8)
      val dist = sparkFit(s, 4)
      val rel = math.abs(dist.sse - local.sse) / math.max(local.sse, 1e-12)
      assert(rel < 1e-6, s"sse ${dist.sse} vs ${local.sse}")
      assert(dist.iterations == local.iterations)
      // distance-computation counts may differ slightly for index methods
      // (per-partition trees) but sequential bounds are per-point: identical
      if (s.isInstanceOf[LloydKernel.type]) assert(dist.metrics.dist == local.metrics.dist)
    }
  }

  test("Spark fits from the same init give bit-identical centroids") {
    // Adaptive UniK is left out: it picks its traversal, and so the order of
    // its sum-vector updates, from wall time.
    for (s <- Seq(LloydKernel, YinyangKernel, Strategies.index, Strategies.unikSingle,
      Strategies.unikMultiple)) {
      val a = sparkFit(s, 4)
      val b = sparkFit(s, 4)
      assert(a.iterations == b.iterations, s.name)
      assert(a.centroids.zip(b.centroids).forall { case (x, y) => x.sameElements(y) }, s.name)
    }
  }

  test("empty partitions: 6 points in 16 partitions equal the local runner for every kernel") {
    val six = pts.take(6)
    val init3 = Init.kmeansPlusPlus(six, 3, 84L)
    for (s <- Strategies.byName.values) {
      val local = Runner.fitLocal(s, six, 3, init3, maxIters = 5)
      val rdd = spark.sparkContext.parallelize(six.toSeq, 2)
      val dist = SparkKMeans.fit(spark, rdd, s, 3, init3, maxIters = 5, numPartitions = 16)
      assert(dist.iterations == local.iterations, s.name)
      assert(dist.n == 6L, s.name)
      assert(math.abs(dist.sse - local.sse) <= 1e-9 * math.max(local.sse, 1.0),
        s"${s.name}: ${dist.sse} vs ${local.sse}")
      dist.centroids.zip(local.centroids).foreach { case (x, y) =>
        x.indices.foreach(i => assert(math.abs(x(i) - y(i)) < 1e-12, s.name))
      }
    }
  }

  test("each iteration is one job with no shuffle: T + 2 jobs per fit") {
    val sc = spark.sparkContext
    val rdd = sc.parallelize(pts.toSeq, 4)
    val listener = new JobListener
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(JobListener.Tag, "fit")
      val r = SparkKMeans.fit(spark, rdd, HameKernel, k, init, maxIters = 8, numPartitions = 4)
      sc.setLocalProperty(JobListener.Tag, "end")
      sc.parallelize(Seq(1), 1).count()
      listener.awaitEnd()
      assert(r.iterations >= 3)
      val jobs = listener.jobs
      // state build, T steps, final SSE
      assert(jobs.size == r.iterations + 2, jobs)
      val stepJobs = jobs.drop(1).dropRight(1)
      assert(stepJobs.forall(j => listener.shuffleWrite(j) == 0L), stepJobs.map(listener.shuffleWrite))
      assert(stepJobs.forall(j => listener.stagesRun(j) == 1), stepJobs.map(listener.stagesRun))
      assert(listener.shuffleWrite(jobs.head) > 0L) // the one-off repartition
    } finally {
      sc.setLocalProperty(JobListener.Tag, null)
      sc.removeSparkListener(listener)
    }
  }

  test("Spark Lloyd with a single partition reproduces local counters exactly") {
    val local = Runner.fitLocal(YinyangKernel, pts, k, init, maxIters = 8)
    val dist = sparkFit(YinyangKernel, 1)
    assert(dist.metrics.dist == local.metrics.dist)
    assert(dist.metrics.boundAccess == local.metrics.boundAccess)
  }

  test("DataFrameKMeans assignment+refinement matches the kernel centroids") {
    val df = Datasets.toDF(spark, pts)
    val got = DataFrameKMeans.fit(spark, df, k, init, maxIters = 3)
    val local = Runner.fitLocal(LloydKernel, pts, k, init, maxIters = 3)
    got.zip(local.centroids).foreach { case (a, b) =>
      a.indices.foreach(i => assert(math.abs(a(i) - b(i)) < 1e-9))
    }
  }

  test("relational refinement agrees with DuckDB (Oracle)") {
    import org.apache.spark.sql.functions._
    val small = pts.take(200)
    val assignedPts = {
      val st = LloydKernel.newState(small, 5, 0L)
      val init5 = Init.kmeansPlusPlus(small, 5, 83L)
      Runner.fitStates(LloydKernel, Seq(st), ps => ps.head.step(_: CentroidInfo), 5, init5, 1, 0L)
      st.assignments
    }
    val wide = Datasets.toWideDF(spark, small)
    import spark.implicits._
    val assignDf = assignedPts.zipWithIndex.map { case (c, i) => (i.toLong, c) }.toSeq
      .toDF("id", "cluster")
    val joined = wide.join(assignDf, "id")
    val d = small(0).length
    val sparkAgg = joined.groupBy($"cluster")
      .agg(count(lit(1)).as("cnt"),
        (0 until d).map(i => avg(col(s"f$i")).as(s"m$i")): _*)
    val duckSql =
      s"SELECT cluster, count(*) AS cnt, " +
        (0 until d).map(i => s"avg(CAST(f$i AS DOUBLE)) AS m$i").mkString(", ") +
        " FROM pts GROUP BY cluster"
    Oracle.assertEquivalent(sparkAgg, duckSql, "pts" -> joined)
  }
}

/** Records, for jobs submitted with `Tag` = "fit", the stages each job ran
  * and the shuffle bytes its tasks wrote. Listener events arrive
  * asynchronously, in posting order; a later job tagged "end" marks the
  * point by which every event of the tagged jobs has been delivered.
  */
private final class JobListener extends SparkListener {
  private val stageJob = mutable.Map.empty[Int, Int]
  private val order = mutable.ArrayBuffer.empty[Int]
  private val stages = mutable.Map.empty[Int, Int].withDefaultValue(0)
  private val written = mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private val ended = new java.util.concurrent.CountDownLatch(1)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).map(_.getProperty(JobListener.Tag)).orNull
    if (tag == "fit") {
      order += e.jobId
      e.stageIds.foreach(s => stageJob(s) = e.jobId)
    } else if (tag == "end") ended.countDown()
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageJob.get(e.stageInfo.stageId).foreach(j => stages(j) += 1)
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.taskMetrics != null)
      stageJob.get(e.stageId).foreach(j => written(j) += e.taskMetrics.shuffleWriteMetrics.bytesWritten)
  }

  def awaitEnd(): Unit =
    assert(ended.await(30, java.util.concurrent.TimeUnit.SECONDS), "listener events not delivered")
  def jobs: Seq[Int] = synchronized(order.toList)
  def stagesRun(job: Int): Int = synchronized(stages(job))
  def shuffleWrite(job: Int): Long = synchronized(written(job))
}

private object JobListener {
  val Tag = "repro.test.jobTag"
}
