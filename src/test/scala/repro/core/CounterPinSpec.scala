package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Exact counter totals for one fixed cell, compared with `==`. Every kernel
  * is deterministic for a fixed seed (adaptive UniK is left out: it picks its
  * traversal from wall time), so any change to a pruning decision, a bound
  * write or a traversal shows up here as a changed count, even when the
  * clustering itself stays exact. A refactor that keeps the kernels'
  * behaviour leaves these totals untouched; only a change that means to
  * alter a pruning decision may re-record them, and says so.
  */
class CounterPinSpec extends AnyFunSuite {

  private case class Pinned(dist: Long, pointAccess: Long, nodeAccess: Long,
                            boundAccess: Long, boundUpdate: Long, moved: Long,
                            iterations: Int)

  // n=500, d=5, k=20, seed 2 (the ExactnessSpec cell), 10 iterations, one partition.
  private val pts = TestData.mixture(500, 5, 12, 0.05, 2L)
  private val k = 20
  private val init = Init.kmeansPlusPlus(pts, k, 102L)

  private val pinned = Map(
    "Annu" -> Pinned(16199L, 16736L, 0L, 5000L, 7244L, 537L, 6),
    "Drak" -> Pinned(12214L, 12751L, 0L, 17500L, 21037L, 537L, 6),
    "Drift" -> Pinned(4267L, 4804L, 0L, 30105L, 62000L, 537L, 6),
    "Elka" -> Pinned(4267L, 4804L, 0L, 30105L, 62000L, 537L, 6),
    "Expo" -> Pinned(11858L, 12395L, 0L, 5000L, 7244L, 537L, 6),
    "Full" -> Pinned(4228L, 4765L, 0L, 33671L, 79665L, 537L, 6),
    "Hame" -> Pinned(23409L, 23946L, 0L, 5000L, 7244L, 537L, 6),
    "Heap" -> Pinned(27700L, 28237L, 0L, 985L, 1385L, 537L, 6),
    "Index" -> Pinned(10450L, 6400L, 296L, 0L, 0L, 537L, 6),
    "KdTree" -> Pinned(12744L, 2164L, 2724L, 0L, 0L, 537L, 6),
    "Lloyd" -> Pinned(60000L, 63000L, 0L, 0L, 0L, 537L, 6),
    "Pami20" -> Pinned(15466L, 16003L, 0L, 0L, 0L, 537L, 6),
    "Regroup" -> Pinned(18166L, 18703L, 0L, 11738L, 14295L, 537L, 6),
    "Search" -> Pinned(35640L, 28977L, 2152L, 0L, 0L, 537L, 6),
    "UniK-multiple" -> Pinned(10450L, 6400L, 296L, 0L, 776L, 537L, 6),
    "UniK-single" -> Pinned(8831L, 8177L, 54L, 6976L, 7752L, 537L, 6),
    "Vector" -> Pinned(14888L, 15425L, 0L, 27440L, 7244L, 537L, 6),
    "Yinyang" -> Pinned(16726L, 17263L, 0L, 6138L, 9069L, 537L, 6)
  )

  test("every deterministic kernel of Strategies.byName is pinned") {
    assert(pinned.keySet == Strategies.byName.keySet - "UniK")
  }

  for ((name, want) <- pinned.toSeq.sortBy(_._1)) {
    test(s"$name counters equal the pinned totals on n=500 d=5 k=20") {
      val r = Runner.fitLocal(Strategies(name), pts, k, init, maxIters = 10)
      val m = r.metrics
      val got = Pinned(m.dist, m.pointAccess, m.nodeAccess, m.boundAccess, m.boundUpdate,
        r.movedPerIter.sum, r.iterations)
      assert(got == want)
    }
  }
}
