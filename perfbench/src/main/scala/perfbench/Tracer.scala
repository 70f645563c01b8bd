package perfbench

import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for one traced roster pass. Spans nest through a
  * stack on the driver thread; the Spark listener adds job and stage spans
  * from its own thread with an explicit parent. Nothing is written until
  * the run ends.
  */
final class Tracer(val pass: Int) {
  import Tracer._

  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil

  def current: Int = synchronized(stack.headOption.getOrElse(-1))

  def open(layer: String, label: String, start: Long = System.nanoTime()): Int = synchronized {
    val id = spans.length
    spans += Span(id, current, layer, label, start, -1L)
    stack = id :: stack
    id
  }

  def close(id: Int, end: Long = System.nanoTime()): Unit = synchronized {
    spans(id) = spans(id).copy(end = end)
    stack = stack.dropWhile(_ != id).drop(1)
  }

  /** A span with an explicit parent that does not enter the stack. */
  def add(layer: String, label: String, parent: Int, start: Long, end: Long): Int = synchronized {
    val id = spans.length
    spans += Span(id, parent, layer, label, start, end)
    id
  }

  def setEnd(id: Int, end: Long): Unit = synchronized { spans(id) = spans(id).copy(end = end) }

  /** Seconds per layer spent in spans of that layer but in none of their children. */
  def selfSeconds: Map[String, Double] = synchronized {
    val done = spans.filter(_.end >= 0)
    val childNs = done.filter(_.parent >= 0).groupMapReduce(_.parent)(_.durNs)(_ + _)
    done.groupMapReduce(_.layer)(s => math.max(0L, s.durNs - childNs.getOrElse(s.id, 0L)) / 1e9)(_ + _)
  }

  def jsonLines: Seq[String] = synchronized {
    spans.toSeq.map { s =>
      s"""{"pass":$pass,"id":${s.id},"parent":${s.parent},"layer":"${s.layer}",""" +
        s""""label":"${s.label}","start_ns":${s.start},"end_ns":${s.end}}"""
    }
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, layer: String, label: String, start: Long, end: Long) {
    def durNs: Long = end - start
  }

  val layers: Seq[String] = Seq("workload", "fit", "new_state", "iteration", "step", "spark_job", "spark_stage")

  /** Spark reports event times in epoch milliseconds; spans use `nanoTime`. */
  private val epochOffsetNs: Long = System.currentTimeMillis() * 1000000L - System.nanoTime()
  def fromEpochMs(ms: Long): Long = ms * 1000000L - epochOffsetNs
}
