package repro.core

/** Per-partition result of one assignment+refinement step: per-cluster sum
  * vectors and counts, plus bookkeeping. The local runner uses it directly;
  * the Spark runner runs one `runJob` per iteration and merges the returned
  * partials on the driver with `merge`.
  *
  * `maxUb(j)` is an upper bound on the radius of cluster j (max over member
  * points of their distance upper bound to the centroid they were just
  * assigned to) — consumed by Pami20/Drift via `CentroidInfo.radii`.
  */
final class Partials(
    val sums: Array[Array[Double]],
    val counts: Array[Long],
    val maxUb: Array[Double], // null unless the strategy requested radii
    val moved: Long,
    val n: Long,
    val metrics: Metrics,     // cumulative snapshot for this partition
    val assignNanos: Long,
    val refineNanos: Long
) extends Serializable {

  def merge(o: Partials): Partials = {
    val k = sums.length
    // A partition without points has no dimension to size its sums by, and
    // adds nothing to them: the other side's sums are the merged ones.
    val s =
      if (o.n == 0) sums
      else if (n == 0) o.sums
      else Array.tabulate(k) { j => val v = sums(j).clone; Geometry.addTo(v, o.sums(j)); v }
    val c = Array.tabulate(k)(j => counts(j) + o.counts(j))
    val mu =
      if (maxUb == null || o.maxUb == null) null
      else Array.tabulate(k)(j => math.max(maxUb(j), o.maxUb(j)))
    val m = metrics.snapshot(); m.add(o.metrics)
    new Partials(s, c, mu, moved + o.moved, n + o.n, m,
      math.max(assignNanos, o.assignNanos), math.max(refineNanos, o.refineNanos))
  }
}
