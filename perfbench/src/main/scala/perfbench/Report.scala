package perfbench

import repro.core.Strategies
import Main.Metric

/** Turns a run's observations into named metrics. A kernel's figure is the
  * median over its timed fits from one init, averaged over the inits the
  * run's passes used; a layer's figure is the sum of those over kernels,
  * the same way `roster_s` sums whole fits. Counts are taken from the first
  * timed pass instead, which every run has on its first init, so that they
  * repeat exactly for a seed however many passes the window held.
  */
final class Report(w: Workload, kernels: Seq[String], setups: Seq[SetupObs], measured: Seq[FitObs],
                   passes: Seq[Seq[FitObs]], traced: Seq[(Seq[FitObs], Tracer)], checks: Checks) {
  import Report._

  private def s(ns: Long): Double = ns / 1e9
  private def byKernel(ps: Seq[Seq[FitObs]]): Map[String, Seq[FitObs]] = ps.flatten.groupBy(_.kernel)
  private val fits = byKernel(passes)

  private def perKernel(k: String, f: FitObs => Double): Double = perKernelOf(fits(k), f)
  /** Sum over kernels of each kernel's median of `f`. */
  private def roster(f: FitObs => Double): Double = kernels.map(perKernel(_, f)).sum
  private def rosterOf(ps: Seq[Seq[FitObs]]): Double = {
    val g = byKernel(ps)
    kernels.map(k => perKernelOf(g(k), o => s(o.fitNs))).sum
  }
  private val fitMedians = kernels.map(perKernel(_, o => s(o.fitNs)))
  /** Local: heap retained by each kernel's state in the measured pass.
    * Spark: Spark's size estimate of the cached states, from the timed fits.
    */
  private val stateMb =
    (if (w.spark) roster(_.stateBytes.toDouble) else measured.map(_.stateBytes.toDouble).sum) / 1e6

  def endToEnd: Seq[Metric] = {
    val attempted = (passes ++ traced.map(_._1)).map(_.length).sum
    values(endToEndCatalog, Map(
      "roster_s" -> fitMedians.sum,
      "fit_s.p50" -> median(passes.flatten.map(o => s(o.fitNs))),
      "best_fit_s" -> fitMedians.min,
      "setup_s" -> median(setups.map(o => s(o.totalNs))),
      "state_mb" -> stateMb,
      "pass_ratio" -> (attempted - checks.failedTimed).toDouble / attempted))
  }

  def perLayer: Seq[Metric] = {
    val first = passes.head.map(o => o.kernel -> o).toMap
    def count(f: FitObs => Long): Double = kernels.map(k => f(first(k)).toDouble).sum
    def counter(i: Int): Double = count(_.counters(i))
    val fitS = fitMedians.sum
    val driverS = roster(o => s(o.fitNs - o.buildMaxNs - o.stepNs))
    val lloydDist = count(o => o.n * o.k * o.iterations)
    val single = fits("UniK-single").map(o => o.init -> o.signature).toMap
    val unikSingle = fits("UniK").map(o => if (single.get(o.init).contains(o.signature)) 1.0 else 0.0)
    val shuffleSpread = kernels.map { k =>
      val b = fits(k).map(_.spark.shuffleWriteBytes.toDouble)
      if (median(b) == 0) 0.0 else (b.max - b.min) / median(b)
    }.max
    val selfS = traced.map(_._2.selfSeconds)
    val common = Map(
      "data.generate_s" -> median(setups.map(o => s(o.generateNs))),
      "init.kmeanspp_s" -> median(setups.map(o => s(o.initNs) / w.inits)),
      "spark.setup_s" -> median(setups.map(o => s(o.sparkNs))),
      "index.build_s" -> roster(o => if (Main.indexKernels(o.kernel)) s(o.buildNs) else 0.0),
      "state.build_s" -> roster(o => if (Main.indexKernels(o.kernel)) 0.0 else s(o.buildNs)),
      "driver.s" -> driverS,
      "driver.share" -> driverS / fitS,
      "driver.info_bytes" -> measured.map(_.infoBytes.toDouble).sum,
      "kernel.step_s" -> roster(o => s(o.stepNs)),
      "kernel.assign_s" -> roster(o => s(o.assignNs)),
      "kernel.refine_s" -> roster(o => s(o.refineNs)),
      "kernel.pruned_ratio" -> (1.0 - counter(0) / lloydDist),
      "unik.adaptive_single" -> unikSingle.sum / unikSingle.length,
      "spark.jobs" -> count(_.spark.jobs),
      "spark.stages" -> count(_.spark.stages),
      "spark.tasks" -> count(_.spark.tasks),
      "spark.task_failures" -> count(_.spark.taskFailures),
      "spark.shuffle_write_bytes" -> roster(_.spark.shuffleWriteBytes.toDouble),
      "spark.shuffle_bytes_spread" -> shuffleSpread,
      "spark.result_bytes" -> roster(_.spark.resultBytes.toDouble),
      "spark.task_run_s" -> roster(_.spark.taskRunMs / 1e3),
      "spark.iter_overhead_s" -> (if (w.spark) roster(o => s(o.fitNs - o.assignNs - o.refineNs)) else 0.0),
      "spark.cached_state_mb" -> (if (w.spark) stateMb else 0.0),
      "trace.overhead" -> rosterOf(traced.map(_._1)) / rosterOf(passes)) ++
      FitObs.counterNames.zipWithIndex.map { case (c, i) => s"kernel.$c" -> counter(i) } ++
      kernels.zip(fitMedians).map { case (k, t) => s"fit_s.$k" -> t } ++
      kernels.map(k => s"dist.$k" -> first(k).counters(0).toDouble) ++
      Tracer.layers.map(l => s"trace.self_s.$l" -> median(selfS.map(_.getOrElse(l, 0.0))))
    values(perLayerCatalog, common)
  }

  private def values(catalog: Seq[(String, String)], v: Map[String, Double]): Seq[Metric] =
    catalog.map { case (name, unit) => Metric(name, unit, v(name)) }
}

object Report {
  def perKernelOf(fits: Seq[FitObs], f: FitObs => Double): Double = {
    val perInit = fits.groupBy(_.init).values.map(os => median(os.map(f)))
    perInit.sum / perInit.size
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Metric names and units, in output order; BENCHMARK.json lists the same. */
  val endToEndCatalog: Seq[(String, String)] = Seq(
    ("roster_s", "s"),
    ("fit_s.p50", "s"),
    ("best_fit_s", "s"),
    ("setup_s", "s"),
    ("state_mb", "MB"),
    ("pass_ratio", "fraction"))

  private val kernelNames = Strategies.byName.keys.toSeq.sorted

  val perLayerCatalog: Seq[(String, String)] = Seq(
    ("data.generate_s", "s"),
    ("init.kmeanspp_s", "s"),
    ("spark.setup_s", "s"),
    ("index.build_s", "s"),
    ("state.build_s", "s"),
    ("driver.s", "s"),
    ("driver.share", "fraction"),
    ("driver.info_bytes", "bytes"),
    ("kernel.step_s", "s"),
    ("kernel.assign_s", "s"),
    ("kernel.refine_s", "s"),
    ("kernel.dist", "count"),
    ("kernel.point_access", "count"),
    ("kernel.node_access", "count"),
    ("kernel.bound_access", "count"),
    ("kernel.bound_update", "count"),
    ("kernel.moved", "count"),
    ("kernel.pruned_ratio", "fraction"),
    ("unik.adaptive_single", "fraction"),
    ("spark.jobs", "count"),
    ("spark.stages", "count"),
    ("spark.tasks", "count"),
    ("spark.task_failures", "count"),
    ("spark.shuffle_write_bytes", "bytes"),
    ("spark.shuffle_bytes_spread", "fraction"),
    ("spark.result_bytes", "bytes"),
    ("spark.task_run_s", "s"),
    ("spark.iter_overhead_s", "s"),
    ("spark.cached_state_mb", "MB"),
    ("trace.overhead", "ratio")) ++
    Tracer.layers.map(l => (s"trace.self_s.$l", "s")) ++
    kernelNames.map(k => (s"fit_s.$k", "s")) ++
    kernelNames.map(k => (s"dist.$k", "count"))
}
