package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The driver-side shared structures every kernel's correctness rests on. */
class CentroidInfoSpec extends AnyFunSuite {

  private val cs = TestData.mixture(40, 3, 8, 0.05, 101L)
  private val prev = cs.map(_.map(_ - 0.01))

  private def info(req: Req, p: Array[Array[Double]] = prev,
                   radii: Array[Double] = null): CentroidInfo = {
    val gi = if (req.normalized.groups) new Grouper(1L).update(cs, regroup = false) else null
    CentroidInfo.compute(2, cs, p, req, gi, radii)
  }

  test("cc matrix is symmetric with zero diagonal; sc is half the min-other") {
    val i = info(Req(cc = true))
    for (a <- cs.indices; b <- cs.indices) {
      assert(math.abs(i.cc(a)(b) - i.cc(b)(a)) < 1e-12)
      if (a == b) assert(i.cc(a)(b) == 0.0)
    }
    cs.indices.foreach { a =>
      val minOther = cs.indices.filter(_ != a).map(i.cc(a)).min
      assert(math.abs(i.sc(a) - 0.5 * minOther) < 1e-12)
      assert(math.abs(i.nearestOther(a) - minOther) < 1e-12)
    }
  }

  test("drifts are exact distances to the previous centroids; top-2 tracked") {
    val i = info(Req())
    cs.indices.foreach(j => assert(math.abs(i.drifts(j) - Geometry.dist(cs(j), prev(j))) < 1e-12))
    assert(i.maxDrift == i.drifts.max)
    val second = i.drifts.sorted.reverse(1)
    assert(math.abs(i.maxDrift2 - second) < 1e-12)
    cs.indices.foreach { j =>
      val expect = cs.indices.filter(_ != j).map(i.drifts).max
      assert(math.abs(i.maxDriftOther(j) - expect) < 1e-12)
    }
  }

  test("iteration 1 has zero drifts") {
    val i = CentroidInfo.compute(1, cs, null, Req(cc = true), null, null)
    assert(i.drifts.forall(_ == 0.0))
    assert(i.maxDrift == 0.0)
  }

  test("neighbors lists start with self and are sorted by centroid distance") {
    val i = info(Req(neighbors = true))
    cs.indices.foreach { a =>
      assert(i.neighbors(a)(0) == a)
      val ds = i.neighbors(a).map(i.cc(a))
      assert(ds.toSeq == ds.sorted.toSeq)
    }
  }

  test("sorted norms are consistent with the norm array") {
    val i = info(Req(sortedNorms = true))
    assert(i.sortedNormVal.toSeq == i.sortedNormVal.sorted.toSeq)
    i.sortedNormIdx.zip(i.sortedNormVal).foreach { case (j, v) =>
      assert(math.abs(i.norms(j) - v) < 1e-12)
    }
  }

  test("Pami20 candidate sets always contain the own cluster and respect Eq. 4") {
    val radii = Array.fill(cs.length)(0.05)
    val i = info(Req(candidates = true), radii = radii)
    cs.indices.foreach { a =>
      assert(i.candidates(a).contains(a))
      cs.indices.filter(_ != a).foreach { b =>
        val in = i.candidates(a).contains(b)
        // radius padding makes the threshold >= the raw Eq. 4 one
        if (i.cc(a)(b) * 0.5 <= 0.05) assert(in)
      }
    }
  }

  test("infinite radii (first refinement) keep every candidate") {
    val i = info(Req(candidates = true), radii = null)
    cs.indices.foreach(a => assert(i.candidates(a).length == cs.length))
  }

  test("block norms recompose the full norm") {
    val i = info(Req(blocks = true))
    cs.indices.foreach { j =>
      val n = math.sqrt(i.blockB1(j) * i.blockB1(j) + i.blockB2(j) * i.blockB2(j))
      assert(math.abs(n - i.norms(j)) < 1e-9)
    }
  }

  test("Req.normalized closes over implied requirements") {
    assert(Req(candidates = true).normalized.cc)
    assert(Req(candidates = true).normalized.radii)
    assert(Req(regroup = true).normalized.groups)
    assert(Req(blocks = true).normalized.norms)
    assert(Req(sortedNorms = true).normalized.norms)
  }
}
