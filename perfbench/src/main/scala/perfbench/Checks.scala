package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import repro.core.FitResult

/** Correctness checks over every fit of a run.
  *
  *  - Exactness: each fit matches Lloyd's fit on the same cell (SSE within
  *    1e-6 relative, same iteration count); a thrown exception is a failure.
  *    A failing kernel stays in the roster and is listed by name.
  *  - Determinism: for a fixed seed each kernel's counters repeat exactly
  *    across passes, and across runs through a file under `--out` keyed by
  *    workload, seed and source stamp. UniK adaptive is exempt (it chooses its
  *    traversal from wall time); on Spark the exact repeat covers job, stage
  *    and task counts, and the spread of byte counts is reported.
  */
final case class Checks(w: Workload, a: Main.Args, refs: IndexedSeq[FitResult],
                        warm: Seq[Seq[FitObs]], timed: Seq[Seq[FitObs]]) {

  def exact(o: FitObs): Boolean = {
    val ref = refs(o.init)
    o.ok && o.iterations == ref.iterations &&
      math.abs(o.sse - ref.sse) <= 1e-6 * math.max(math.abs(ref.sse), Double.MinPositiveValue)
  }

  private val all = warm.flatten ++ timed.flatten

  val failing: Seq[(String, String)] =
    all.filterNot(exact).groupBy(_.kernel).toSeq.sortBy(_._1).map { case (k, os) =>
      val o = os.head
      k -> (if (!o.ok) o.error
            else f"init ${o.init}: iterations=${o.iterations} (Lloyd ${refs(o.init).iterations}) sse=${o.sse}%.10e")
    }

  val failedTimed: Int = timed.flatten.count(o => !exact(o))

  /** What must repeat exactly for a kernel on one init of this workload. */
  private def value(o: FitObs): String =
    if (w.spark) s"jobs=${o.spark.jobs} stages=${o.spark.stages} tasks=${o.spark.tasks}"
    else o.signature

  private val byKey: Map[String, Seq[FitObs]] =
    all.filter(o => o.ok && !Main.timingDependent(o.kernel)).groupBy(o => s"${o.kernel} init=${o.init}")

  val unrepeated: Seq[String] =
    byKey.values.filter(_.map(value).distinct.size > 1).map(_.head.kernel).toSeq.distinct.sorted

  /** Compares, per kernel and init, with earlier runs of the same seed and
    * sources (runs may cover different inits), then records the union.
    */
  val crossRun: Either[String, String] = {
    val now = byKey.map { case (k, os) => k -> value(os.head) }
    val dir = Paths.get(a.out).resolve("counters")
    Files.createDirectories(dir)
    val f = dir.resolve(s"${w.name}-seed${a.seed}-${a.stamp}.txt")
    val before =
      if (!Files.exists(f)) Map.empty[String, String]
      else new String(Files.readAllBytes(f), UTF_8).linesIterator.map { l =>
        val i = l.indexOf('\t'); l.take(i) -> l.drop(i + 1)
      }.toMap
    val differ = now.keySet.intersect(before.keySet).toSeq.sorted.filter(k => now(k) != before(k))
    Files.write(f, (before ++ now).toSeq.sorted.map { case (k, v) => s"$k\t$v" }.mkString("", "\n", "\n").getBytes(UTF_8))
    if (differ.nonEmpty) Left(s"counters differ from an earlier run ($f) for ${differ.mkString(", ")}")
    else if (before.isEmpty) Right(s"first run for this seed and source; counters recorded in $f")
    else Right(s"counters equal those of earlier runs where both ran ($f)")
  }

  val correct: Boolean = failing.isEmpty && unrepeated.isEmpty && crossRun.isRight

  def lines: Seq[String] =
    Seq(s"check exactness: ${all.length} fits, ${all.count(o => !exact(o))} failed" +
      (if (failing.isEmpty) "" else failing.map { case (k, why) => s"\n  FAIL $k: $why" }.mkString)) ++
    Seq(s"check repeat (${if (w.spark) "job/stage/task counts" else "counters"}, UniK adaptive exempt): " +
      (if (unrepeated.isEmpty) "ok" else s"NOT REPEATED for ${unrepeated.mkString(", ")}")) ++
    Seq("check cross-run: " + crossRun.fold("FAIL " + _, identity))
}
