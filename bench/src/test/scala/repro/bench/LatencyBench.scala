package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Benches
import repro.synth.RealWorldSim

/** Figures 15 & 16 (table-ized) — latency breakdown per optimization variant
  * and end-to-end comparison with the baselines.
  *
  * Paper (C++/M1, single-threaded): liquor Vanilla 9.888s → w/filter 2.59s →
  * O1 or O2 ~1.1s → O1+O2 756ms (≈13× total); covid 175/217ms → 33/43ms;
  * S&P 500 → 102ms. We run on the JVM, so absolute numbers differ — the
  * assertions target the *relative* speedups the paper claims.
  */
class LatencyBench extends AnyFunSuite {

  test("Fig 15: optimizations progressively cut latency; O1+O2 wins on the big cube") {
    val sims = Seq(RealWorldSim.covidDaily(), RealWorldSim.sp500(), RealWorldSim.liquor())
    val allRows = sims.flatMap { sim =>
      // warm-up JIT on a small config before measuring
      repro.core.TSExplain.explain(sim.cube.slice(0, math.min(30, sim.cube.n - 1)),
        repro.core.TSConfig())
      Benches.latencyBreakdown(sim)
    }
    println("=== Fig 15 (latency breakdown, ms) ===")
    println(Benches.fmtTable(
      Seq("dataset", "variant", "precompute", "CA", "K-seg", "total"),
      allRows.map(r => Seq(r.dataset, r.variant,
        f"${r.timings.precomputeMs}%.0f", f"${r.timings.caMs}%.0f", f"${r.timings.ksegMs}%.0f", f"${r.timings.totalMs}%.0f"))))

    for (sim <- Seq("liquor", "sp500")) {
      val rows = allRows.filter(_.dataset == sim)
      val vanilla = rows.find(_.variant == "Vanilla").get.timings.totalMs
      val opt = rows.find(_.variant == "O1+O2").get.timings.totalMs
      val speedup = vanilla / opt
      println(f"$sim: O1+O2 speedup over Vanilla = $speedup%.1fx")
      assert(speedup > 1.5, f"$sim: expected a clear speedup, got $speedup%.2fx")
    }
  }

  test("Fig 16: optimized TSExplain is competitive end-to-end with the baselines") {
    val sim = RealWorldSim.covidDaily()
    val rows = Benches.endToEnd(sim)
    println("=== Fig 16 (end-to-end, ms; baselines = segmentation + explanation add-on) ===")
    println(Benches.fmtTable(
      Seq("dataset", "method", "segment ms", "explain ms", "total ms"),
      rows.map(r => Seq(r.dataset, r.method,
        f"${r.segmentMs}%.0f", f"${r.explainMs}%.0f", f"${r.segmentMs + r.explainMs}%.0f"))))
    val opt = rows.find(_.method == "TSExplain(O1+O2)").get
    val vanilla = rows.find(_.method == "TSExplain(Vanilla)").get
    assert(opt.segmentMs <= vanilla.segmentMs + 1e-6 * vanilla.segmentMs + 1.0 ||
      opt.segmentMs < vanilla.segmentMs * 1.1,
      "optimized pipeline should not be slower than vanilla")
  }
}
