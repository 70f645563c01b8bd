package repro.core

import scala.collection.mutable.ArrayBuffer

/** One partition's worth of algorithm state: the points, the per-point
  * bound state, and (for index methods) the per-partition tree. Lives for
  * the whole run; `step` is called once per iteration with the broadcast
  * centroid-side state and returns this partition's partial aggregates.
  *
  * Spark may rebuild a state from its points in the middle of a run (an
  * evicted or retried partition). A state therefore decides from its own
  * history, never from the driver's iteration number, whether its bounds
  * exist yet: its first step is a cold one at whatever iteration it falls.
  */
abstract class PartitionState(val points: Array[Array[Double]], val k: Int)
    extends Serializable {

  final val n: Int = points.length
  final val d: Int = if (n == 0) 0 else points(0).length
  /** Cluster of each point; -1 until this state's first step. */
  protected final val assign: Array[Int] = Array.fill(n)(-1)
  final val m = new Metrics

  def step(info: CentroidInfo): Partials

  /** Exact SSE of this partition under the final centroids (untimed,
    * uncounted — a verification pass, not part of the algorithm).
    */
  def finalSse(centroids: Array[Array[Double]]): Double = {
    var s = 0.0
    var i = 0
    while (i < n) { s += Geometry.distSq(points(i), centroids(assign(i))); i += 1 }
    s
  }

  /** Current assignment vector (for exactness tests). */
  def assignments: Array[Int] = assign.clone()
}

/** Factory for per-partition states; the only thing shipped to executors. */
trait Strategy extends Serializable {
  def name: String
  def req: Req
  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState
}

/** Shared scaffolding for the *sequential* (point-at-a-time) kernels:
  * assignment bookkeeping, incremental ("sum vector") or full-rescan
  * refinement, mover tracking, per-phase timing, metric snapshots.
  *
  * The first step of this object calls `seedAll`, which builds the kernel's
  * bounds from scratch; every later step calls `assignAll`, which
  * drift-updates and tests them. Both call `reassign(i, j)` for every point
  * (also when j is unchanged — reassign only records a move when the
  * cluster actually changes).
  */
abstract class SequentialState(points: Array[Array[Double]], k: Int)
    extends PartitionState(points, k) {

  /** Lloyd sets this false: refinement rescans every point. */
  protected def incrementalRefine: Boolean = true

  /** Pami20/Drift: report per-cluster max distance upper bound. */
  protected def reportRadii: Boolean = false

  /** Distance upper bound of point i to its assigned centroid (only needed
    * when `reportRadii`; must be valid after every step).
    */
  protected def ubOf(i: Int): Double = 0.0

  protected val sums: Array[Array[Double]] = Array.ofDim[Double](k, math.max(d, 1))
  protected val counts: Array[Long] = new Array[Long](k)

  private val moverIdx = new ArrayBuffer[Int]
  private val moverFrom = new ArrayBuffer[Int]
  private var seeded = false

  /** Cold step: no bounds exist yet and every point is unassigned. Kernels
    * that keep no bounds inherit the default.
    */
  protected def seedAll(info: CentroidInfo): Unit = assignAll(info)

  /** Warm step: every point has a cluster and the bounds of the last step. */
  protected def assignAll(info: CentroidInfo): Unit

  /** Counted distance from a data point to a centroid. */
  @inline protected final def cdist(x: Array[Double], c: Array[Double]): Double = {
    m.dist += 1; m.pointAccess += 1
    Geometry.dist(x, c)
  }

  @inline protected final def reassign(i: Int, j: Int): Unit = {
    val old = assign(i)
    if (old != j) { moverIdx += i; moverFrom += old; assign(i) = j }
  }

  def step(info: CentroidInfo): Partials = {
    moverIdx.clear(); moverFrom.clear()
    val t0 = System.nanoTime()
    if (seeded) assignAll(info) else { seedAll(info); seeded = true }
    val t1 = System.nanoTime()
    refine()
    val t2 = System.nanoTime()
    val maxUb =
      if (!reportRadii) null
      else {
        val r = new Array[Double](k)
        var i = 0
        while (i < n) {
          val a = assign(i)
          if (ubOf(i) > r(a)) r(a) = ubOf(i)
          i += 1
        }
        r
      }
    new Partials(Geometry.copy2(sums), counts.clone(), maxUb, moverIdx.length.toLong,
      n.toLong, m.snapshot(), t1 - t0, t2 - t1)
  }

  /** Refinement = maintaining the per-cluster sum vectors. Incremental mode
    * touches movers only (Section 5.1.2); full mode rescans the partition
    * (classic Lloyd refinement, n data accesses).
    */
  private def refine(): Unit = {
    if (!incrementalRefine) {
      var j = 0
      while (j < k) { java.util.Arrays.fill(sums(j), 0.0); counts(j) = 0; j += 1 }
      var i = 0
      while (i < n) {
        Geometry.addTo(sums(assign(i)), points(i)); counts(assign(i)) += 1
        i += 1
      }
      m.pointAccess += n
    } else {
      var z = 0
      while (z < moverIdx.length) {
        val i = moverIdx(z); val from = moverFrom(z)
        val x = points(i)
        if (from >= 0) { Geometry.subFrom(sums(from), x); counts(from) -= 1 }
        Geometry.addTo(sums(assign(i)), x); counts(assign(i)) += 1
        m.pointAccess += 1
        z += 1
      }
    }
  }
}
