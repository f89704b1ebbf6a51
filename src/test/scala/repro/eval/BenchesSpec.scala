package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.synth.{RealWorldSim, SyntheticGen}

class BenchesSpec extends AnyFunSuite {

  test("fmtTable aligns columns and inserts a separator row") {
    val t = Benches.fmtTable(Seq("a", "long"), Seq(Seq("x", "1"), Seq("yy", "22")))
    val lines = t.linesIterator.toVector
    assert(lines.size == 4)
    assert(lines(0).startsWith("a "))
    assert(lines(1).contains("-"))
    assert(lines.map(_.length).distinct.size == 1, "all rows padded to equal width")
  }

  test("fig10 returns one row per SNR with all four methods") {
    val rows = Benches.fig10(datasetsPerSnr = 1, snrs = Seq(40.0, 50.0), n = 40)
    assert(rows.map(_.snr) == Seq(40.0, 50.0))
    for (r <- rows) {
      assert(r.avgDistByMethod.keySet == Benches.methodNames.toSet)
      assert(r.avgDistByMethod.values.forall(v => v >= 0 && v <= 100))
    }
  }

  test("fig6 returns the 8 metric ranks per SNR, each in [1, 8]") {
    val rows = Benches.fig6(datasetsPerSnr = 1, snrs = Seq(45.0), samples = 50, n = 40)
    assert(rows.size == 1)
    val ranks = rows.head.avgRankByMetric
    assert(ranks.keySet == VarianceMetric.all.map(_.name).toSet)
    assert(ranks.values.forall(v => v >= 1.0 && v <= 8.0))
  }

  test("scalability rows honor the vanilla cap") {
    val rows = Benches.scalability(Seq(30, 60), vanillaCap = 30)
    assert(rows.find(_.n == 30).get.vanillaMs.isDefined)
    assert(rows.find(_.n == 60).get.vanillaMs.isEmpty)
    assert(rows.forall(_.optMs > 0))
  }

  test("runRealWorld reports NaN diff stats when no expectation is planted") {
    val run = Benches.runRealWorld(RealWorldSim.covidTotal(), TSConfig(fixedK = Some(4)))
    assert(run.topMatchFraction.isNaN == run.sim.expected.isEmpty)
    assert(!run.cutDistancePercent.isNaN, "covid-total has designed cuts to compare against")
  }

  test("runRealWorld's rendered table has one line per segment") {
    val run = Benches.runRealWorld(RealWorldSim.covidDaily(), TSConfig(fixedK = Some(3)))
    assert(run.rendered.linesIterator.size == 2 + 3)
  }

  test("table6 without dedup reports raw conjunction counts") {
    val sim = RealWorldSim.sp500()
    val raw = Benches.table6(Seq(sim), dedupForEps = false).head
    val dd = Benches.table6(Seq(sim), dedupForEps = true).head
    assert(raw.epsilon == 2215 && dd.epsilon == 610)
    assert(raw.n == dd.n)
  }

  test("latencyBreakdown covers the five §7.5.1 variants in order") {
    val ds = SyntheticGen.generate(n = 40, snrDb = 40, seed = 31)
    val sim = RealWorldSim.Sim("tiny", ds.cube, ds.truthCuts, Vector.empty, () => Seq.empty)
    val rows = Benches.latencyBreakdown(sim)
    assert(rows.map(_.variant) == Seq("Vanilla", "w filter", "O1", "O2", "O1+O2"))
    assert(rows.forall(_.timings.totalMs >= 0))
  }

  test("endToEnd produces rows for TSExplain and the three baselines") {
    val ds = SyntheticGen.generate(n = 50, snrDb = 40, seed = 32)
    val sim = RealWorldSim.Sim("tiny", ds.cube, ds.truthCuts, Vector.empty, () => Seq.empty)
    val rows = Benches.endToEnd(sim)
    assert(rows.map(_.method).toSet ==
      Set("TSExplain(Vanilla)", "TSExplain(O1+O2)", "Bottom-Up", "FLUSS", "NNSegment"))
    // the baselines must carry a nonzero segmentation time and an explanation add-on ≥ 0
    assert(rows.filter(r => !r.method.startsWith("TSExplain")).forall(_.explainMs >= 0))
  }
}
