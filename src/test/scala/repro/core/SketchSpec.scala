package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.synth.SyntheticGen

class SketchSpec extends AnyFunSuite {

  def costsFor(cube: ExplCube): SegmentCosts = {
    val ca = new CascadingAnalysts(cube, 3)
    val cache = scala.collection.mutable.Map.empty[(Int, Int), TopIds]
    new SegmentCosts(cube, VarianceMetric.Tse, s => cache.getOrElseUpdate((s.i, s.j), ca.topIds(s)))
  }

  test("sketch parameters follow the paper: L = min(0.05n, 20), |S| = 3n/L") {
    assert(Sketch.maxSegLen(100) == 5)
    assert(Sketch.maxSegLen(345) == 18)
    assert(Sketch.maxSegLen(1000) == 20)
    assert(Sketch.sketchSize(100) == 60)
    assert(Sketch.sketchSize(1000) == 150)
  }

  test("sketch includes both endpoints and is sorted/distinct") {
    val ds = SyntheticGen.generate(n = 60, snrDb = 40, seed = 1)
    val s = SketchSelect(costsFor(ds.cube))
    assert(s.head == 0 && s.last == ds.cube.n - 1)
    assert(s == s.sorted && s.distinct == s)
  }

  test("sketch segments respect the length cap L") {
    val ds = SyntheticGen.generate(n = 80, snrDb = 40, seed = 2)
    val s = SketchSelect(costsFor(ds.cube))
    val l = Sketch.maxSegLen(80)
    assert(s.sliding(2).forall { case Vector(a, b) => b - a <= l })
  }

  test("sketch retains the ground-truth cut positions at high SNR") {
    val ds = SyntheticGen.generate(n = 100, snrDb = 50, seed = 3)
    val s = SketchSelect(costsFor(ds.cube)).toSet
    // every true cut should be in (or within 1 of) the sketch
    for (c <- ds.truthCuts)
      assert(s.exists(x => math.abs(x - c) <= 1), s"true cut $c missing from sketch")
  }

  test("phase-II pipeline over the sketch approximates the vanilla optimum") {
    val ds = SyntheticGen.generate(n = 80, snrDb = 45, seed = 4)
    val costs = costsFor(ds.cube)
    val vanilla = KSegmentation.dp(costs.cost, (0 until ds.cube.n).toVector, kMax = ds.k)
    val sk = SketchSelect(costs)
    val sketched = KSegmentation.dp(costs.cost, sk, kMax = math.min(ds.k, sk.size - 1))
    val k = math.min(ds.k, sk.size - 1)
    assert(sketched.curve(k - 1) >= vanilla.curve(k - 1) - 1e-9, "sketch cannot beat vanilla")
    assert(sketched.curve(k - 1) <= vanilla.curve(k - 1) * 1.25 + 1e-6,
      s"sketch quality degraded too much: ${sketched.curve(k - 1)} vs ${vanilla.curve(k - 1)}")
  }
}
