package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core._
import repro.cube.ExplanationCube
import repro.eval.Benches
import repro.synth.RealWorldSim

/** Shared plumbing for the spark-submit entrypoints: builds the session,
  * emits the simulated relation, aggregates the explanation cube with the
  * one-scan grouping-sets aggregate, runs TSExplain, and prints the paper table.
  */
object Jobs {

  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Build the cube from a Spark relation and explain it; prints timing for
    * the Spark aggregation separately (module a runs in Catalyst).
    */
  def explainRelation(
      spark: SparkSession,
      sim: RealWorldSim.Sim,
      attrs: Seq[String],
      cfg: TSConfig,
      rowsPerRecord: Int = 10,
  ): TSExplain.Result = {
    val df = SynthData.explainRelation(spark, attrs, sim.records(), rowsPerRecord).cache()
    val rows = df.count() // fills the cache, so the timed build below only aggregates
    val t0 = System.nanoTime()
    val built = ExplanationCube.build(df, "t", attrs, "m", maxOrder = cfg.maxOrder)
    // the relation's time column is the day index; re-attach the date labels
    val cube = new ExplCube(built.attrs, sim.cube.times, built.total, built.expls,
      built.expls.indices.map(i => built.series(i)).toArray)
    val buildMs = (System.nanoTime() - t0) / 1e6
    println(f"[${sim.name}] relation rows=$rows cube ε=${cube.epsilon} built in $buildMs%.0f ms")
    val res = TSExplain.explain(cube, cfg)
    println(Benches.renderCanonical(res.cube, res.explanation))
    println(f"timings: precompute=${res.timings.precomputeMs}%.0f ms (+ $buildMs%.0f ms Spark cube) " +
      f"CA=${res.timings.caMs}%.0f ms K-seg=${res.timings.ksegMs}%.0f ms")
    res
  }
}

/** Table 3 — Covid daily-confirmed-cases evolving explanations (the daily
  * series is fuzzy, so the elbow run smooths first as in §7.4).
  */
object Table3CovidDaily {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table3-covid-daily")
    try Jobs.explainRelation(spark, RealWorldSim.covidDaily(), Seq("state"),
      TSConfig(smoothWindow = Some(5)))
    finally spark.stop()
  }
}

/** Figure 11 counterpart — Covid total-confirmed-cases. */
object CovidTotal {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("covid-total")
    try Jobs.explainRelation(spark, RealWorldSim.covidTotal(), Seq("state"), TSConfig())
    finally spark.stop()
  }
}

/** Table 4 — S&P 500 evolving explanations. */
object Table4SP500 {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table4-sp500")
    try Jobs.explainRelation(spark, RealWorldSim.sp500(),
      Seq("category", "subcategory", "stock"), TSConfig(filterRatio = Some(0.001)), rowsPerRecord = 2)
    finally spark.stop()
  }
}

/** Table 5 — Liquor evolving explanations. */
object Table5Liquor {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table5-liquor")
    try Jobs.explainRelation(spark, RealWorldSim.liquor(), Seq("BV", "P", "CN", "VN"),
      TSConfig(filterRatio = Some(0.001), guessVerify = true), rowsPerRecord = 2)
    finally spark.stop()
  }
}

/** Table 6 — dataset statistics (ε, filtered ε, n). */
object Table6Stats {
  def main(args: Array[String]): Unit = {
    val sims = Seq(RealWorldSim.covidTotal(), RealWorldSim.covidDaily(),
      RealWorldSim.sp500(), RealWorldSim.liquor())
    val rows = Benches.table6(sims)
    println(Benches.fmtTable(
      Seq("dataset", "ε", "filtered ε", "n"),
      rows.map(r => Seq(r.dataset, r.epsilon.toString, r.filteredEpsilon.toString, r.n.toString))))
  }
}

/** Table 7 — optimization quality (variance Vanilla vs O1+O2). */
object Table7Quality {
  def main(args: Array[String]): Unit = {
    val sims = Seq(RealWorldSim.covidTotal(), RealWorldSim.covidDaily(),
      RealWorldSim.sp500(), RealWorldSim.liquor())
    val rows = sims.map(Benches.table7(_))
    println(Benches.fmtTable(
      Seq("dataset", "Variance(Vanilla)", "Variance(O1+O2)"),
      rows.map(r => Seq(r.dataset, f"${r.varianceVanilla}%.4f", f"${r.varianceOpt}%.4f"))))
  }
}

/** Figures 6 & 10 — synthetic effectiveness studies. */
object SyntheticEffectiveness {
  def main(args: Array[String]): Unit = {
    val snrs = Seq(20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)
    val metricRows = Benches.fig6(datasetsPerSnr = 4, snrs, samples = 2000)
    val metrics = VarianceMetric.all.map(_.name)
    println("Fig 6 — average metric rank per SNR:")
    println(Benches.fmtTable("SNR" +: metrics,
      metricRows.map(r => r.snr.toInt.toString +: metrics.map(m => f"${r.avgRankByMetric(m)}%.2f"))))
    val effRows = Benches.fig10(datasetsPerSnr = 6, snrs)
    println("\nFig 10 — average distance percent per SNR:")
    println(Benches.fmtTable("SNR" +: Benches.methodNames,
      effRows.map(r => r.snr.toInt.toString +: Benches.methodNames.map(m => f"${r.avgDistByMethod(m)}%.2f"))))
  }
}

/** Figures 15-17 — latency breakdown, end-to-end comparison, scalability. */
object Latency {
  def main(args: Array[String]): Unit = {
    for (sim <- Seq(RealWorldSim.covidDaily(), RealWorldSim.sp500(), RealWorldSim.liquor())) {
      val rows = Benches.latencyBreakdown(sim)
      println(Benches.fmtTable(
        Seq("dataset", "variant", "precompute", "CA", "K-seg", "total"),
        rows.map(r => Seq(r.dataset, r.variant, f"${r.timings.precomputeMs}%.0f",
          f"${r.timings.caMs}%.0f", f"${r.timings.ksegMs}%.0f", f"${r.timings.totalMs}%.0f"))))
    }
    val scale = Benches.scalability(Seq(100, 200, 400, 800), vanillaCap = 400)
    println(Benches.fmtTable(Seq("n", "Vanilla ms", "O1+O2 ms", "O1+O2 MB"),
      scale.map(r => Seq(r.n.toString, r.vanillaMs.map(v => f"$v%.0f").getOrElse("-"), f"${r.optMs}%.0f", f"${r.optAllocMb}%.0f"))))
  }
}
