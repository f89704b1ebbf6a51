package repro.cube

import repro.{SparkSpec, SynthData}
import repro.core._
import repro.synth.{RealWorldSim, SyntheticGen}

class SparkTSExplainSpec extends SparkSpec {

  lazy val ds = SyntheticGen.generate(n = 40, snrDb = 40, seed = 55)

  test("distributed per-segment CA equals the driver CA on every segment") {
    val segments = for { i <- 0 until ds.cube.n; j <- i + 1 until ds.cube.n } yield Segment(i, j)
    val dist = SparkPerSegment.topIds(spark, ds.cube, segments, TSConfig())
    val ca = new CascadingAnalysts(ds.cube, 3)
    for ((seg, a) <- segments.zip(dist).take(200)) {
      val b = ca.topIds(seg)
      assert(a.ids.toSeq == b.ids.toSeq, s"$seg ids")
      assert(a.best.toSeq == b.best.toSeq, s"$seg best")
    }
  }

  test("distributed CA honors the guess-verify flag with identical scores") {
    val segments = Seq(Segment(0, 10), Segment(5, 30), Segment(0, ds.cube.n - 1))
    val dist = SparkPerSegment.topIds(spark, ds.cube, segments, TSConfig(guessVerify = true))
    val ca = new CascadingAnalysts(ds.cube, 3)
    for ((seg, t) <- segments.zip(dist))
      assert(math.abs(t.best(3) - ca.topIds(seg).best(3)) < 1e-9)
  }

  // ε > 200, so O1's guesses run CA with most ids masked out (m̄ < ε).
  lazy val liquor = RealWorldSim.liquor().cube.slice(0, 30)

  def sameAsDriver(cube: ExplCube, cfg: TSConfig): Unit = {
    val onSpark = TSExplain.explain(cube, cfg, SparkTSExplain.topLists(spark)).explanation
    assert(onSpark == TSExplain.explain(cube, cfg).explanation)
  }

  test("explain on Spark top lists equals the driver (vanilla, fixed K)") {
    sameAsDriver(ds.cube, TSConfig(fixedK = Some(ds.k)))
  }

  test("explain on Spark top lists equals the driver (filter + O1, elbow K)") {
    sameAsDriver(liquor, TSConfig(filterRatio = Some(0.001), guessVerify = true, kMax = 10))
  }

  test("explain on Spark top lists equals the driver (filter + O1 + O2)") {
    sameAsDriver(liquor, TSConfig(filterRatio = Some(0.001)).withAllOpts)
  }

  // Read-back solves the chosen segments again: the all-pair metrics read
  // only unit lists from the source, and O2's phase II reads lists of both
  // the band and its own batch.
  test("explain on Spark top lists equals the driver (all-pair metric)") {
    sameAsDriver(ds.cube, TSConfig(metric = VarianceMetric.AllPair, kMax = 10))
  }

  test("explain on Spark top lists equals the driver (fixed K + O2)") {
    sameAsDriver(ds.cube, TSConfig(fixedK = Some(ds.k), sketch = true))
  }

  test("the Spark source's batch equals the per-segment solver and the driver's batch") {
    for ((cube, cfg) <- Seq((ds.cube, TSConfig()), (liquor.filtered(0.001), TSConfig(guessVerify = true)))) {
      val segments = for (i <- 0 until cube.n; j <- i + 1 until cube.n) yield Segment(i, j)
      val got = SparkTSExplain.topLists(spark)(cube, cfg, segments)
      val driver = TopLists.Driver(cube, cfg, segments)
      val want = segments.map(TopLists.solver(cube, cfg).topIds)
      def key(t: TopIds) = (t.ids.toSeq, t.taus.toSeq)
      assert(got.lists.map(key).toSeq == want.map(key).distinct, s"$cfg: lists")
      assert(got.of.indices.forall(k => key(got.lists(got.of(k))) == key(want(k))), s"$cfg: indices")
      assert(got.of.sameElements(driver.of) && got.lists.map(key).sameElements(driver.lists.map(key)), s"$cfg: driver")
    }
  }

  test("explainGrouped runs the full DP per grouped series and matches driver results") {
    import spark.implicits._
    val dss = (1 to 4).map(i => i.toString -> SyntheticGen.generate(n = 30, snrDb = 40, seed = 100 + i))
    val rows: Seq[SparkTSExplain.SeriesRow] = dss.flatMap { case (sid, d) =>
      SyntheticGen.records(d).map { case (vals, t, m) => (sid, t, vals("category"), m) }
    }
    val cfg = TSConfig(fixedK = Some(3))
    val got = SparkTSExplain.explainGrouped(spark, rows.toDS(), cfg).collect()
      .map(r => r._1 -> ((r._2, r._3.toVector, r._4))).toMap
    assert(got.keySet == dss.map(_._1).toSet)
    for ((sid, d) <- dss) {
      val cube = ExplCube.fromRecords(Seq("category"), (0 until 30).map(_.toString),
        SyntheticGen.records(d))
      val want = TSExplain.explain(cube, cfg).explanation
      val (k, cuts, v) = got(sid)
      assert(k == want.scheme.k, s"series $sid K")
      assert(cuts == want.scheme.interior, s"series $sid cuts")
      assert(math.abs(v - want.totalVariance) < 1e-9, s"series $sid variance")
    }
  }

  test("explainGrouped parallelism: each series is explained independently") {
    import spark.implicits._
    val a = SyntheticGen.generate(n = 25, snrDb = 45, seed = 201)
    val b = SyntheticGen.generate(n = 25, snrDb = 45, seed = 202)
    val rows = Seq("a" -> a, "b" -> b).flatMap { case (sid, d) =>
      SyntheticGen.records(d).map { case (vals, t, m) => (sid, t, vals("category"), m) }
    }
    val res = SparkTSExplain.explainGrouped(spark, rows.toDS(), TSConfig(fixedK = Some(2))).collect()
    assert(res.length == 2)
    assert(res.map(_._2).forall(_ == 2))
  }

  test("end-to-end via Spark relation: cube build + explain recovers the planted cuts") {
    val clean = SyntheticGen.generate(n = 50, snrDb = 50, seed = 300)
    val df = SynthData.synthetic(spark, clean)
    val cube = ExplanationCube.build(df, "t", Seq("category"), "m")
    val res = TSExplain.explain(cube, TSConfig(fixedK = Some(clean.k)))
    val d = repro.eval.Metrics.distancePercent(clean.truthCuts, res.explanation.scheme.interior, 50)
    assert(d <= 4.0, s"distance $d: got ${res.explanation.scheme.interior} want ${clean.truthCuts}")
  }
}
