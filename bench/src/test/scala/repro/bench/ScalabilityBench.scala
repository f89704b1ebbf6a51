package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Benches

/** Figure 17 (table-ized) — latency vs time series length on the synthetic
  * generator. Paper: Vanilla grows super-linearly (terminated past 100 s by
  * n = 6400) while the optimized pipeline stays interactive (982 ms at
  * n = 3200). We sweep up to n = 12800 (vanilla only up to its cap) and
  * assert the shape: optimized ≪ vanilla, and optimized growth is
  * sub-quadratic. Each optimized query's allocation, over all threads, is
  * printed next to its time.
  */
class ScalabilityBench extends AnyFunSuite {

  test("Fig 17: optimized latency scales far better than vanilla in n") {
    val lengths = sys.env.getOrElse("BENCH_FIG17_LENGTHS", "100,200,400,800,1600,3200,6400,12800").split(",").map(_.trim.toInt).toSeq
    val vanillaCap = sys.env.getOrElse("BENCH_FIG17_VANILLA_CAP", "400").toInt
    // JIT warm-up
    Benches.scalability(Seq(100), vanillaCap = 100)
    val rows = Benches.scalability(lengths, vanillaCap)
    println("=== Fig 17 (latency vs series length, ms; O1+O2 allocation, MB) ===")
    println(Benches.fmtTable(
      Seq("n", "Vanilla", "O1+O2", "O1+O2 MB"),
      rows.map(r => Seq(r.n.toString,
        r.vanillaMs.map(v => f"$v%.0f").getOrElse("(skipped)"), f"${r.optMs}%.0f", f"${r.optAllocMb}%.0f"))))
    rows.find(_.n == 3200).foreach(r => println(f"n = 3200, O1+O2: ${r.optMs}%.0f ms (paper: 982 ms)"))

    // at the largest length where vanilla ran, opt must be clearly faster
    val biggest = rows.filter(_.vanillaMs.isDefined).maxBy(_.n)
    assert(biggest.optMs < biggest.vanillaMs.get,
      f"n=${biggest.n}: opt ${biggest.optMs}%.0f ms !< vanilla ${biggest.vanillaMs.get}%.0f ms")

    // optimized growth between consecutive doublings stays sub-quadratic-ish
    val opt = rows.map(r => (r.n, r.optMs))
    for (Seq((n1, t1), (n2, t2)) <- opt.sliding(2) if n2 == 2 * n1 && t1 > 50) {
      assert(t2 / t1 < 8.0, f"opt latency grew ${t2 / t1}%.1fx from n=$n1 to n=$n2")
    }
  }
}
