package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.synth.SyntheticGen
import scala.util.Random

class MetricsSpec extends AnyFunSuite {

  test("distancePercent is zero for identical cut sets") {
    assert(Metrics.distancePercent(Vector(10, 20, 30), Vector(10, 20, 30), 100) == 0.0)
  }

  test("distancePercent sums order-aligned displacements normalized by (K-1)·n") {
    // |10-12| + |20-20| + |30-27| = 5; / (3 * 100) * 100 = 5/3
    val d = Metrics.distancePercent(Vector(10, 20, 30), Vector(12, 20, 27), 100)
    assert(math.abs(d - 5.0 / 3.0) < 1e-9)
  }

  test("distancePercent is symmetric for equal-size inputs") {
    val a = Vector(5, 40, 70); val b = Vector(9, 33, 80)
    assert(Metrics.distancePercent(a, b, 100) == Metrics.distancePercent(b, a, 100))
  }

  test("distancePercent handles unequal sizes via alignment with gap penalty") {
    val d = Metrics.distancePercent(Vector(10, 50), Vector(10), 100)
    // one matched (cost 0), one gap (cost 100) / (2*100) * 100 = 50
    assert(math.abs(d - 50.0) < 1e-9)
  }

  test("distancePercent of empty truth and empty prediction is 0") {
    assert(Metrics.distancePercent(Vector.empty, Vector.empty, 100) == 0.0)
  }

  test("randomScheme samples valid K-segmentations") {
    val rnd = new Random(1)
    for (_ <- 1 to 100) {
      val s = Metrics.randomScheme(n = 50, k = 5, rnd)
      assert(s.k == 5)
      assert(s.cuts.head == 0 && s.cuts.last == 49)
      assert(s.interior.forall(c => c >= 1 && c <= 48))
    }
  }

  test("randomScheme covers the space (different draws differ)") {
    val rnd = new Random(2)
    val seen = (1 to 20).map(_ => Metrics.randomScheme(30, 3, rnd).interior).toSet
    assert(seen.size > 10)
  }

  test("groundTruthRank is 1 when the truth is the unique optimum") {
    // clean dataset: the planted segmentation minimizes tse variance
    val ds = SyntheticGen.generate(n = 60, snrDb = 50, seed = 21)
    val ca = new CascadingAnalysts(ds.cube, 3)
    val cache = scala.collection.mutable.Map.empty[(Int, Int), TopIds]
    val costs = new SegmentCosts(ds.cube, VarianceMetric.Tse,
      s => cache.getOrElseUpdate((s.i, s.j), ca.topIds(s)))
    val rank = Metrics.groundTruthRank(costs, ds.truthScheme(ds.cube.n), samples = 300, seed = 3)
    assert(rank <= 5, s"rank $rank")
  }

  test("groundTruthRank degrades with noise") {
    def rankAt(snr: Double): Int = {
      val ds = SyntheticGen.generate(n = 60, snrDb = snr, seed = 22)
      val ca = new CascadingAnalysts(ds.cube, 3)
      val cache = scala.collection.mutable.Map.empty[(Int, Int), TopIds]
      val costs = new SegmentCosts(ds.cube, VarianceMetric.Tse,
        s => cache.getOrElseUpdate((s.i, s.j), ca.topIds(s)))
      Metrics.groundTruthRank(costs, ds.truthScheme(ds.cube.n), samples = 200, seed = 4)
    }
    assert(rankAt(50) <= rankAt(15) + 5)
  }
}
