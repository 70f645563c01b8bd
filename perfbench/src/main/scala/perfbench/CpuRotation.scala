package perfbench

import java.nio.file.{Files, Paths}
import scala.util.Try

/** Pins the calling thread to the next allowed CPU in turn, with `taskset`.
  *
  * On a box whose vCPUs share cores with other tenants, one vCPU can run a
  * thread at half the speed of another for minutes, and the scheduler leaves
  * an idle box's single busy thread where it is. A one-thread workload would
  * then time whichever vCPU it landed on. Moving the thread before each fit
  * (outside the timed span) spreads every kernel's fits over all the vCPUs.
  * Call it from the thread that runs the fits.
  */
object CpuRotation {
  private lazy val tid: Option[String] =
    Try(Files.readSymbolicLink(Paths.get("/proc/thread-self")).getFileName.toString).toOption

  /** The CPUs this process may run on, from `Cpus_allowed_list` ("0-3,6"). */
  private lazy val cpus: IndexedSeq[Int] = Try {
    val line = Files.readAllLines(Paths.get("/proc/self/status")).toArray.map(_.toString)
      .find(_.startsWith("Cpus_allowed_list:")).get
    line.drop("Cpus_allowed_list:".length).trim.split(",").toIndexedSeq.flatMap { r =>
      r.split("-") match {
        case Array(a) => Seq(a.toInt)
        case Array(a, b) => a.toInt to b.toInt
      }
    }
  }.getOrElse(IndexedSeq.empty)

  private var next = 0
  private var working = true

  private def pin(cpu: Int, t: String): Boolean = Try {
    new ProcessBuilder("taskset", "-p", "-c", cpu.toString, t)
      .redirectErrorStream(true).redirectOutput(ProcessBuilder.Redirect.DISCARD).start().waitFor() == 0
  }.getOrElse(false)

  /** Moves the calling thread to the next CPU; gives up for good on the first failure. */
  def advance(): Unit = if (working) {
    working = tid.nonEmpty && cpus.length > 1 && pin(cpus(next % cpus.length), tid.get)
    next += 1
  }

  def describe: String =
    if (working && tid.nonEmpty && cpus.length > 1) s"taskset before each fit, over CPUs ${cpus.mkString(",")}"
    else "off (taskset or /proc unavailable)"
}
