package repro.bench

import repro.{SparkSpec, SynthData}
import repro.core._
import repro.cube.{ExplanationCube, SparkTSExplain}
import repro.eval.Metrics
import repro.synth.{RealWorldSim, SyntheticGen}

/** Spark-scale benches: the grouped-DP path over the §7.1.1 corpus (many
  * independent series explained in parallel on executors) and the full
  * Spark-relation path at inflated row counts: each covid record is split
  * into 50 rows, so the cube aggregate scans 1,000,500 rows while the
  * aggregated series stays identical. The aggregate combines each map
  * task's rows before its shuffle, which carries only the partial groups
  * (about 0.5 MB), so the scan is the work this row count scales.
  */
class SparkFleetBench extends SparkSpec {

  test("grouped pipeline explains the synthetic corpus in parallel with high accuracy") {
    import spark.implicits._
    val datasets = sys.env.getOrElse("BENCH_FLEET_DATASETS", "5").toInt
    val corpus = SyntheticGen.corpus(datasets, Seq(35.0, 45.0)).zipWithIndex
    val rows: Seq[SparkTSExplain.SeriesRow] = corpus.flatMap { case ((_, ds), i) =>
      SyntheticGen.records(ds).map { case (vals, t, m) => (s"ds$i", t, vals("category"), m) }
    }
    val t0 = System.nanoTime()
    val got = SparkTSExplain
      .explainGrouped(spark, rows.toDS().repartition(16), TSConfig(filterRatio = Some(0.001)))
      .collect()
      .map(r => r._1 -> r)
      .toMap
    val wallMs = (System.nanoTime() - t0) / 1e6
    println(f"=== Spark fleet: ${corpus.size} series explained in $wallMs%.0f ms ===")

    val dists = corpus.map { case ((snr, ds), i) =>
      val (_, k, cuts, _) = got(s"ds$i")
      (snr, Metrics.distancePercent(ds.truthCuts, cuts.toVector, ds.cube.n), k, ds.k)
    }
    val avg = dists.map(_._2).sum / dists.size
    println(f"avg distance percent: $avg%.2f%%; K matches: ${dists.count(d => math.abs(d._3 - d._4) <= 1)}/${dists.size}")
    assert(got.size == corpus.size)
    assert(avg <= 12.0, f"fleet avg distance $avg%.2f%% too high")
  }

  test("full Spark path at inflated scale reproduces Table 3 from the raw relation") {
    val sim = RealWorldSim.covidDaily()
    val df = SynthData.covidDaily(spark, rowsPerRecord = 50).cache() // ~1M rows
    val nRows = df.count()
    val t0 = System.nanoTime()
    val cube = ExplanationCube.build(df, "t", Seq("state"), "m")
    val buildMs = (System.nanoTime() - t0) / 1e6
    println(f"=== Spark covid relation: $nRows rows, cube built in $buildMs%.0f ms ===")
    assert(nRows == 58L * 345L * 50L)
    assert(cube.epsilon == 58)
    // aggregated series identical to the simulator's despite the row split
    val e = Expl.of("state" -> "New York")
    val a = cube.series(cube.idOf(e)); val b = sim.cube.series(sim.cube.idOf(e))
    assert(a.zip(b).forall { case (x, y) => math.abs(x - y) < 1e-6 })

    val res = TSExplain.explain(cube, TSConfig(fixedK = Some(7)).withAllOpts)
    val d = Metrics.distancePercent(sim.truthCuts, res.explanation.scheme.interior, cube.n)
    println(f"cut distance vs designed truth: $d%.2f%%")
    assert(d <= 3.0)
  }

  test("distributed per-segment CA at liquor scale matches the driver answers") {
    val sim = RealWorldSim.liquor()
    val cube = sim.cube.filtered(0.001)
    val n = cube.n
    val segments = (for { i <- 0 until n by 4; j <- i + 1 until n by 4 } yield Segment(i, j)).toVector
    val t0 = System.nanoTime()
    val dist = SparkTSExplain.topIdsPerSegment(spark, cube, segments, TSConfig(guessVerify = true))
    val wallMs = (System.nanoTime() - t0) / 1e6
    println(f"=== distributed CA: ${segments.size} segments of liquor (ε=${cube.epsilon}) in $wallMs%.0f ms ===")
    val ca = new CascadingAnalysts(cube, 3)
    for ((seg, t) <- segments.zip(dist).take(40))
      assert(math.abs(t.best(3) - ca.topIds(seg).best(3)) < 1e-6, s"$seg")
  }
}
