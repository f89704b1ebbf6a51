package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.synth.{RealWorldSim, SyntheticGen}
import repro.eval.{Benches, Metrics}

class TSExplainSpec extends AnyFunSuite {

  test("end-to-end recovers the planted segmentation on a clean dataset (oracle K)") {
    val ds = SyntheticGen.generate(n = 100, snrDb = 50, seed = 5)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val d = Metrics.distancePercent(ds.truthCuts, res.explanation.scheme.interior, ds.cube.n)
    assert(d <= 2.0, s"distance percent $d too high; got ${res.explanation.scheme.interior} want ${ds.truthCuts}")
  }

  test("end-to-end stays accurate at moderate noise (SNR 35)") {
    val ds = SyntheticGen.generate(n = 100, snrDb = 35, seed = 6)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val d = Metrics.distancePercent(ds.truthCuts, res.explanation.scheme.interior, ds.cube.n)
    assert(d <= 8.0, s"distance percent $d too high")
  }

  test("elbow-selected K is close to the ground-truth K on clean data") {
    var ok = 0
    for (seed <- 1 to 5) {
      val ds = SyntheticGen.generate(n = 100, snrDb = 50, seed = seed)
      val res = TSExplain.explain(ds.cube, TSConfig(kMax = 15))
      if (math.abs(res.explanation.scheme.k - ds.k) <= 1) ok += 1
    }
    assert(ok >= 3, s"elbow matched K±1 on only $ok/5 clean datasets")
  }

  test("guess-and-verify produces exactly the vanilla result") {
    val ds = SyntheticGen.generate(n = 60, snrDb = 40, seed = 7)
    val vanilla = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val o1 = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k), guessVerify = true))
    assert(vanilla.explanation.scheme == o1.explanation.scheme)
    assert(math.abs(vanilla.explanation.totalVariance - o1.explanation.totalVariance) < 1e-9)
  }

  test("sketching approximates the vanilla variance closely (≤ a few percent)") {
    val ds = SyntheticGen.generate(n = 100, snrDb = 40, seed = 8)
    val vanilla = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val o2 = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k), sketch = true))
    val v = vanilla.explanation.totalVariance
    val s = o2.explanation.totalVariance
    assert(s >= v - 1e-9)
    assert(s <= v * 1.25 + 0.05, s"sketch variance $s vs vanilla $v")
  }

  test("O1+O2 together still match the vanilla scheme quality closely") {
    val ds = SyntheticGen.generate(n = 100, snrDb = 40, seed = 9)
    val vanilla = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)))
    val both = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(ds.k)).withAllOpts)
    assert(both.explanation.totalVariance <= vanilla.explanation.totalVariance * 1.25 + 0.05)
  }

  test("a flat or all-zero series is one segment at every length, with and without O2") {
    for (n <- 2 to 4; level <- Seq(0.0, 7.0); sketch <- Seq(false, true)) {
      val series = Seq(Expl.of("A" -> "a") -> Array.fill(n)(level), Expl.of("A" -> "b") -> Array.fill(n)(2 * level))
      val cube = ExplCube.fromSeries(Seq("A"), (0 until n).map(_.toString), Array.fill(n)(3 * level), series)
      val ex = TSExplain.explain(cube, TSConfig(sketch = sketch)).explanation
      assert(ex.kVarianceCurve.forall(_._2 == 0.0), s"n = $n, level $level, sketch $sketch")
      assert(ex.scheme == SegScheme(Vector(0, n - 1)), s"n = $n, level $level, sketch $sketch")
    }
  }

  test("the K-variance curve is reported for every K up to the cap") {
    val ds = SyntheticGen.generate(n = 50, snrDb = 40, seed = 10)
    val res = TSExplain.explain(ds.cube, TSConfig(kMax = 12))
    assert(res.explanation.kVarianceCurve.map(_._1) == (1 to 12).toVector)
    val vars = res.explanation.kVarianceCurve.map(_._2)
    assert(vars.zip(vars.tail).forall { case (a, b) => b <= a + 1e-9 })
  }

  test("per-segment explanations cover the whole scheme and come from the CA") {
    val ds = SyntheticGen.generate(n = 60, snrDb = 40, seed = 11)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(3)))
    val e = res.explanation
    assert(e.perSegment.map(_._1) == e.scheme.segments)
    for ((seg, top) <- e.perSegment) {
      val direct = new CascadingAnalysts(res.cube, 3).topIds(seg)
      assert(top.ranked.map(_.gamma) == direct.ids.toVector.map(res.cube.gamma(_, seg)), s"segment $seg")
    }
  }

  test("filter ratio removes insignificant explanations before the pipeline") {
    val ds = SyntheticGen.generate(n = 40, snrDb = 40, seed = 12)
    // add a negligible 4th slice
    val tiny = Expl.of("category" -> "tiny") -> Array.fill(40)(1e-5)
    val cube = ExplCube.fromSeries(Seq("category"), (0 until 40).map(_.toString),
      ds.cube.total, ds.cube.expls.zip(ds.cube.series).map(x => (x._1, x._2)) :+ tiny)
    val res = TSExplain.explain(cube, TSConfig(filterRatio = Some(0.001), fixedK = Some(2)))
    assert(res.cube.epsilon == 3, "the tiny slice must be filtered out")
  }

  test("smoothing is applied before explaining when configured") {
    val ds = SyntheticGen.generate(n = 40, snrDb = 25, seed = 13)
    val res = TSExplain.explain(ds.cube, TSConfig(smoothWindow = Some(5), fixedK = Some(2)))
    assert(res.cube.total.toSeq == ds.cube.smoothed(5).total.toSeq)
  }

  test("timings are populated and non-negative") {
    val ds = SyntheticGen.generate(n = 50, snrDb = 40, seed = 14)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(3)))
    assert(res.timings.caMs >= 0 && res.timings.ksegMs >= 0 && res.timings.precomputeMs >= 0)
    assert(res.timings.totalMs > 0)
  }

  test("fixedK is clamped to the feasible range") {
    val ds = SyntheticGen.generate(n = 20, snrDb = 40, seed = 15)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(500)))
    assert(res.explanation.scheme.k == math.min(20, ds.cube.n - 1))
  }

  test("kMax past the series is capped at the candidate positions − 1, with and without O2") {
    val cube = SyntheticGen.generate(n = 30, snrDb = 40, seed = 19).cube
    for (sketch <- Seq(false, true)) {
      val capped = TSExplain.explain(cube, TSConfig(kMax = cube.n - 1, sketch = sketch))
      assert(capped.explanation.kVarianceCurve.size == capped.candidates.size - 1, s"sketch $sketch")
      assert(TSExplain.explain(cube, TSConfig(kMax = 10 * cube.n, sketch = sketch)).explanation == capped.explanation,
        s"sketch $sketch")
    }
  }

  test("a series with more DP cells than one array holds is an IllegalArgumentException naming n") {
    val n = 70000
    val series = Array.tabulate(n)(t => (t % 7).toDouble)
    val cube = ExplCube.fromSeries(Seq("a"), (0 until n).map(_.toString), series.clone(), Seq(Expl.of("a" -> "x") -> series))
    val counting = new CountingTopLists
    val e = intercept[IllegalArgumentException](TSExplain.explain(cube, TSConfig(), counting))
    assert(e.getMessage.contains(s"$n candidate positions") && e.getMessage.contains((n.toLong * (n - 1) / 2).toString),
      e.getMessage)
    assert(counting.solved.isEmpty, "no segment is solved before the cells are counted")
  }

  test("render produces one row per segment") {
    val ds = SyntheticGen.generate(n = 40, snrDb = 40, seed = 16)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(3)))
    val text = Benches.renderCanonical(res.cube, res.explanation)
    assert(text.linesIterator.size == 2 + res.explanation.scheme.k)
  }

  test("distributed-style segment count: candidates default to every position") {
    val ds = SyntheticGen.generate(n = 30, snrDb = 40, seed = 17)
    val res = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(2)))
    assert(res.candidates == (0 until 30).toVector)
  }

  // ------------------------------------------- the pipeline as public calls

  /** `explain` recomposed from each layer's public calls, solving a
    * segment's top list when the costs first read it; also returns the
    * segments solved, in that order. Read-back solves the chosen segments
    * again, outside that record.
    */
  def recompose(cube0: ExplCube, cfg: TSConfig): (Explanation, Seq[Segment]) = {
    val smoothed = cfg.smoothWindow.fold(cube0)(cube0.smoothed)
    val cube = cfg.filterRatio.fold(smoothed)(smoothed.filtered)
    val solve: Segment => TopIds =
      if (cfg.guessVerify) new GuessVerify(cube, cfg.m, cfg.maxOrder).topIds _
      else new CascadingAnalysts(cube, cfg.m, cfg.maxOrder).topIds _
    val solved = scala.collection.mutable.LinkedHashMap.empty[Segment, TopIds]
    val top: Segment => TopIds = s => solved.getOrElseUpdate(s, solve(s))
    val costs = new SegmentCosts(cube, cfg.metric, top)
    val candidates = if (cfg.sketch) SketchSelect(costs) else (0 until cube.n).toVector
    val kCap = math.min(cfg.kMax, candidates.size - 1)
    val dp = KSegmentation.dp(costs.cost, candidates, kCap)
    val k = cfg.fixedK.fold(Elbow.select(dp.curve))(k0 => math.max(1, math.min(k0, kCap)))
    val scheme = dp.schemes(k - 1).get
    val perSegment = scheme.segments.map(s => s -> CascadingAnalysts.pretty(cube, solve(s)))
    val curve = dp.curve.zipWithIndex.map { case (v, i) => (i + 1, v) }
    (Explanation(scheme, dp.curve(k - 1), perSegment, curve), solved.keys.toVector)
  }

  /** A driver source that records every segment it is asked to solve. */
  final class CountingTopLists extends TopLists {
    val solved = scala.collection.mutable.ArrayBuffer.empty[Segment]
    def apply(cube: ExplCube, cfg: TSConfig, segments: Seq[Segment]): TopLists.Batch = {
      solved ++= segments
      TopLists.Driver(cube, cfg, segments)
    }
  }

  lazy val synth = SyntheticGen.generate(n = 100, snrDb = 40, seed = 18).cube
  // ε > 200, so O1's guesses run CA with most ids masked out (m̄ < ε).
  lazy val liquor = RealWorldSim.liquor().cube.slice(0, 40)

  lazy val pipelineCases: Seq[(String, ExplCube, TSConfig)] = Seq(
    ("vanilla", synth, TSConfig()),
    ("fixed K", synth, TSConfig(fixedK = Some(4))),
    ("kMax 1", synth, TSConfig(kMax = 1)),
    ("smoothed", synth, TSConfig(smoothWindow = Some(5))),
    ("O2", synth, TSConfig(sketch = true)),
    ("allpair", synth, TSConfig(metric = VarianceMetric.AllPair)),
    ("squared allpair + O2", synth, TSConfig(metric = VarianceMetric.SAllPair, sketch = true)),
    ("filter + O1", liquor, TSConfig(filterRatio = Some(0.001), guessVerify = true)),
    ("filter + O1 + O2", liquor, TSConfig(filterRatio = Some(0.001)).withAllOpts),
  )

  test("explain equals its recomposition from public calls") {
    for ((name, cube, cfg) <- pipelineCases)
      assert(TSExplain.explain(cube, cfg).explanation == recompose(cube, cfg)._1, name)
  }

  test("explain solves each segment once, and just the segments the layers read") {
    for ((name, cube, cfg) <- pipelineCases) {
      val counting = new CountingTopLists
      TSExplain.explain(cube, cfg, counting)
      assert(counting.solved.distinct.size == counting.solved.size, s"$name: a segment solved twice")
      assert(counting.solved.toSet == recompose(cube, cfg)._2.toSet, name)
    }
  }

  test("vanilla explain solves every one of the n(n-1)/2 segments") {
    val counting = new CountingTopLists
    TSExplain.explain(synth, TSConfig(), counting)
    assert(counting.solved.size == synth.n * (synth.n - 1) / 2)
  }
}
