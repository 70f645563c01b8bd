package repro.core

/** Hamerly's algorithm [SDM'10]: one upper bound and ONE global lower bound
  * per point (distance to the second-nearest centroid), i.e. the
  * "global pruning" of Section 4.2.1. O(n) bound storage.
  */
object HameKernel extends Strategy {
  val name = "Hame"
  val req: Req = Req(cc = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new HameState(points, k)
}

final class HameState(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  private val ub = new Array[Double](n)
  private val lb = new Array[Double](n)

  override protected def ubOf(i: Int): Double = ub(i)

  override protected def seedAll(info: CentroidInfo): Unit = {
    var i = 0
    while (i < n) { fullScan(i, points(i), info.centroids); i += 1 }
  }

  protected def assignAll(info: CentroidInfo): Unit = {
    val cs = info.centroids
    var i = 0
    while (i < n) {
      val x = points(i)
      val a = assign(i)
      ub(i) += info.drifts(a)
      lb(i) -= info.maxDriftOther(a)
      m.boundUpdate += 2
      m.boundAccess += 2
      val thr = math.max(lb(i), info.sc(a))
      if (thr < ub(i)) {
        ub(i) = cdist(x, cs(a)) // tighten
        if (thr < ub(i)) fullScan(i, x, cs)
      }
      i += 1
    }
  }

  /** Scan all k centroids; set ub = nearest, lb = second nearest. */
  private def fullScan(i: Int, x: Array[Double], cs: Array[Array[Double]]): Unit = {
    var best = -1; var d1 = Double.PositiveInfinity; var d2 = Double.PositiveInfinity
    var j = 0
    while (j < k) {
      val dd = cdist(x, cs(j))
      if (dd < d1) { d2 = d1; d1 = dd; best = j }
      else if (dd < d2) d2 = dd
      j += 1
    }
    ub(i) = d1; lb(i) = d2
    m.boundUpdate += 2
    reassign(i, best)
  }
}
