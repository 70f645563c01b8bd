package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import repro.core._
import scala.collection.mutable.ArrayBuffer

/** Roster benchmark: every strategy in `Strategies.byName`, in name order,
  * fitted on one workload for a fixed measuring window.
  *
  * Usage: perfbench.Main --workload W --seed N --seconds S --trace 0|1
  *          --result FILE --out DIR [--stamp S]
  *
  * The last line written to `--result` is one JSON object with `correct`,
  * `attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
  * per-layer metrics with `--trace 1`). Traced runs also write their spans
  * to `--out`.
  */
object Main {

  final case class Args(workload: String = "", seed: Long = 1L, seconds: Int = 10, trace: Boolean = false,
                        result: String = "", out: String = "", stamp: String = "none")

  final case class Metric(name: String, unit: String, value: Double)

  val indexKernels: Set[String] = Set("Index", "KdTree", "Search", "UniK", "UniK-single", "UniK-multiple")
  /** UniK adaptive picks its traversal from wall time, so its counters may differ between passes. */
  val timingDependent: Set[String] = Set("UniK")

  def roster: Seq[Strategy] = Strategies.byName.toSeq.sortBy(_._1).map(_._2)

  def parse(argv: List[String], a: Args = Args()): Args = argv match {
    case Nil => a
    case "--workload" :: v :: t => parse(t, a.copy(workload = v))
    case "--seed" :: v :: t => parse(t, a.copy(seed = v.toLong))
    case "--seconds" :: v :: t => parse(t, a.copy(seconds = v.toInt))
    case "--trace" :: v :: t => parse(t, a.copy(trace = v == "1"))
    case "--result" :: v :: t => parse(t, a.copy(result = v))
    case "--out" :: v :: t => parse(t, a.copy(out = v))
    case "--stamp" :: v :: t => parse(t, a.copy(stamp = v))
    case x :: _ => throw new IllegalArgumentException(s"unknown argument '$x'")
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toList)
    val scale = sys.env.get("REPRO_SCALE")
    if (scale.exists(v => scala.util.Try(v.toDouble).toOption != Some(1.0))) {
      System.err.println(s"refusing to run: REPRO_SCALE=${scale.get} would resize every workload")
      sys.exit(2)
    }
    val w = Workload.byName.getOrElse(a.workload, {
      System.err.println(s"unknown workload '${a.workload}' (have: ${Workload.all.map(_.name).mkString(", ")})")
      sys.exit(2)
    })
    require(a.result.nonEmpty && a.out.nonEmpty, "--result and --out are required")
    val (initSeeds, refs) = Engine.chooseInits(w, a.seed)
    val engine: Engine = if (w.spark) new SparkEngine(w, initSeeds) else new LocalEngine(w, initSeeds)
    try run(a, w, engine, initSeeds, refs) finally engine.close()
  }

  private def log(s: String): Unit = { println(s); System.out.flush() }

  def run(a: Args, w: Workload, engine: Engine, initSeeds: IndexedSeq[Long], refs: IndexedSeq[FitResult]): Unit = {
    // The local workloads' fits and set-ups run on one thread; it moves to the
    // next CPU before each of them (Spark's tasks use all the CPUs anyway).
    def rotate(): Unit = if (!w.spark) CpuRotation.advance()
    val setups = (1 to Workload.setupReps).map { _ => rotate(); Engine.forcedGc(); engine.setup() }
    val env = Seq(
      "workload" -> w.name, "seed" -> a.seed.toString, "init_seeds" -> initSeeds.mkString(","),
      "dataset" -> w.dataset, "data_seed" -> Engine.dataSeed.toString,
      "n" -> engine.points.length.toString, "d" -> w.d.toString, "k" -> w.k.toString,
      "iterations" -> w.iterations.toString, "kernel_seed" -> Engine.kernelSeed.toString,
      "git_sha" -> gitSha, "source_stamp" -> a.stamp,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "xmx_mb" -> (Runtime.getRuntime.maxMemory >> 20).toString,
      "repro_scale" -> sys.env.getOrElse("REPRO_SCALE", "unset"),
      "cpu_rotation" -> (if (w.spark) "off (Spark tasks use every CPU)" else CpuRotation.describe)) ++ engine.env
    log("env " + env.map { case (k, v) => s"$k=$v" }.mkString(" "))
    log("set-up s (data+init+spark): " +
      setups.map(o => f"${o.generateNs / 1e9}%.3f+${o.initNs / 1e9}%.3f+${o.sparkNs / 1e9}%.3f").mkString(" "))

    val kernels = roster
    refs.zipWithIndex.foreach { case (r, m) => log(f"reference Lloyd, init $m: iterations=${r.iterations} sse=${r.sse}%.10e") }

    def fitOnce(s: Strategy, init: Int, tracer: Tracer): FitObs = {
      rotate()
      Engine.forcedGc()
      engine.fit(s, init, tracer)
    }

    // Warm-up is never timed. Each kernel is fitted once cold, then three
    // times measured: forced GCs around each fit record its retained state
    // (and, in traced runs, CentroidInfo bytes), and the fit with the median
    // state stands for the kernel, since a heap delta can be off when other
    // objects die during the fit. On Spark the listener records the cached
    // states in every fit, so only traced runs measure there, once, for
    // CentroidInfo. More fits follow until the kernel's warm-up fits reach
    // the workload budget.
    val measures = if (!w.spark) 3 else if (a.trace) 1 else 0
    val (measured, coldFits, warmFits) = kernels.map { s =>
      val fits = ArrayBuffer(fitOnce(s, 0, null))
      val ms = Seq.fill(measures)(engine.fit(s, 0, null, measureState = true, measureInfo = a.trace))
      while ((fits ++ ms).map(_.fitNs).sum < w.warmupPerKernelS * 1e9) fits += fitOnce(s, 0, null)
      (ms.sortBy(_.stateBytes).lift(ms.length / 2), fits.head, ms ++ fits.tail)
    }.unzip3
    if (measures > 0)
      log("state MB: " + measured.flatten.map(o => f"${o.kernel}=${o.stateBytes / 1e6}%.2f").mkString(" "))
    // A pass fits every kernel once, so the fits of a run mix the kernels in
    // the same proportions on every run and seed.
    def pass(init: Int, tracer: Tracer): Seq[FitObs] = {
      val span = if (tracer != null) tracer.open("workload", w.name) else -1
      val obs = kernels.map(fitOnce(_, init, tracer))
      if (tracer != null) tracer.close(span)
      obs
    }

    val warm = (coldFits +: warmFits) ++ (0 until w.warmupPasses).map(p => pass(p % w.inits, null))
    log(f"warm-up: ${warm.flatten.length} fits in ${warm.flatten.map(_.fitNs).sum / 1e9}%.3f s")

    val untraced = ArrayBuffer.empty[Seq[FitObs]]
    val traced = ArrayBuffer.empty[(Seq[FitObs], Tracer)]
    val windowNs = a.seconds * 1000000000L
    val passNs = ArrayBuffer.empty[Long]
    val t0 = System.nanoTime()
    // A pass starts only if, at the median pass time so far, ending after it
    // is nearer the window's end than stopping before it. At least two
    // untraced passes run, so no kernel's figure rests on one fit, and in
    // traced runs at least one traced pass. Passes take the inits in turn;
    // traced passes alternate with untraced ones on the same init.
    def roomForAnother: Boolean =
      passNs.isEmpty || System.nanoTime() - t0 + Report.median(passNs.map(_.toDouble).toSeq) / 2 <= windowNs
    while (roomForAnother || untraced.length < 2 || (a.trace && traced.isEmpty)) {
      val p0 = System.nanoTime()
      val p = passNs.length
      if (a.trace && p % 2 == 1) {
        val tr = new Tracer(p)
        traced += (pass((p / 2) % w.inits, tr) -> tr)
      } else untraced += pass((if (a.trace) p / 2 else p) % w.inits, null)
      passNs += System.nanoTime() - p0
    }
    val windowS = (System.nanoTime() - t0) / 1e9
    log(f"timed: ${untraced.length} untraced + ${traced.length} traced pass(es) in $windowS%.2f s")
    kernels.foreach { s =>
      def times(ps: Iterable[Seq[FitObs]]) =
        ps.map(_.filter(_.kernel == s.name).map(o => f"${o.fitNs / 1e9}%.4f").mkString(" ")).mkString(" / ")
      log(f"fits ${s.name}%-14s ${times(untraced)}" + (if (traced.isEmpty) "" else s" | traced ${times(traced.map(_._1))}"))
    }

    val timed = untraced.toSeq ++ traced.map(_._1)
    val checks = Checks(w, a, refs, warm, timed)
    checks.lines.foreach(log)

    val report = new Report(w, kernels.map(_.name), setups, measured.flatten, untraced.toSeq, traced.toSeq, checks)
    val metrics = if (a.trace) report.perLayer else report.endToEnd
    metrics.foreach(m => log(f"metric ${m.name}%-30s ${fmt(m.value)}%-24s ${m.unit}"))
    log(s"fit_s.p50 sample count: ${untraced.map(_.length).sum} fits of ${kernels.length} kernels")

    if (a.trace) {
      val lines = traced.flatMap(_._2.jsonLines)
      val p = Paths.get(a.out).resolve(s"trace-${w.name}-seed${a.seed}.jsonl")
      Files.write(p, lines.mkString("", "\n", "\n").getBytes(UTF_8))
      log(s"trace: ${lines.length} spans written to $p")
    }

    val attempted = timed.map(_.length).sum
    val json = "{" +
      s""""correct": ${checks.correct}, "attempted": $attempted, "failed": ${checks.failedTimed}, """ +
      "\"metrics\": {" + metrics.map(m => s""""${m.name}": {"value": ${fmt(m.value)}, "unit": "${m.unit}"}""").mkString(", ") +
      "}}"
    Files.write(Paths.get(a.result), (json + "\n").getBytes(UTF_8))
  }

  def fmt(x: Double): String = if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString

  def gitSha: String =
    scala.util.Try {
      val p = new ProcessBuilder("git", "rev-parse", "HEAD").redirectErrorStream(true).start()
      val out = new String(p.getInputStream.readAllBytes(), UTF_8).trim
      if (p.waitFor() == 0) out else "unknown (not a git checkout)"
    }.getOrElse("unknown (git unavailable)")
}
