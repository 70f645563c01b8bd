package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Spark rebuilds an evicted or retried partition by calling `newState` again
  * from lineage, in the middle of a fit. The rebuilt state has never seen a
  * step, so it must seed its own bounds on its first step, whatever the
  * driver's iteration is, and the fit must still end where Lloyd ends.
  */
class RebuildSpec extends AnyFunSuite {

  private val pts = TestData.mixture(500, 5, 12, 0.05, 2L)
  private val k = 20
  private val seed = 17L
  private val init = Init.kmeansPlusPlus(pts, k, 102L)
  private val slices = pts.grouped(pts.length / 4).toArray
  private lazy val lloyd = Runner.fitLocal(LloydKernel, pts, k, init, maxIters = 10, seed = seed)

  private def relErr(a: Double, b: Double): Double = math.abs(a - b) / math.max(math.abs(b), 1e-12)

  for ((name, s) <- Strategies.byName.toSeq.sortBy(_._1); at <- Seq(2, 3)) {
    test(s"$name rejoins exactly when a partition state is rebuilt at iteration $at") {
      assert(slices.length == 4)
      val states = Array.tabulate(slices.length)(p => s.newState(slices(p), k, seed ^ p))
      val step = (info: CentroidInfo) => {
        if (info.iter == at) states(1) = s.newState(slices(1), k, seed ^ 1)
        states.map(_.step(info)).reduceLeft(_ merge _)
      }
      val r = Runner.drive(s, step, cs => states.map(_.finalSse(cs)).sum, k, init,
        maxIters = 10, seed = seed)
      assert(relErr(r.sse, lloyd.sse) < 1e-6, s"SSE ${r.sse} vs Lloyd ${lloyd.sse}")
      r.centroids.zip(lloyd.centroids).foreach { case (c, ref) =>
        assert(Geometry.dist(c, ref) <= 1e-6 * math.max(Geometry.norm(ref), 1e-12),
          s"centroid ${c.toSeq} vs Lloyd ${ref.toSeq}")
      }
      assert(!states.exists(_.assignments.contains(-1)), "a point was left unassigned")
    }
  }
}
