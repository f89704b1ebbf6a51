package repro.cube

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.core._

/** End-to-end integration over the TPC-H-lite substrate: an aggregated time
  * series (monthly revenue) explained by lineitem dimension attributes —
  * the same query shape as the paper's motivating examples, with the cube
  * aggregation oracle-checked against DuckDB.
  */
class TpchExplainSpec extends SparkSpec {

  lazy val li = SynthData.lineitem(spark, sf = 0.002).cache()

  lazy val monthly = li.select(
    date_format(col("l_shipdate"), "yyyy-MM").as("month"),
    col("l_returnflag"), col("l_linestatus"),
    col("l_extendedprice").as("m"))

  test("monthly revenue cube matches DuckDB for the total series") {
    val cube = CubeFrames.cubeDF(monthly, "month", Seq("l_returnflag", "l_linestatus"), "m")
    val totals = cube.where(col("gid") === 3).select(col("month"), col("agg_value").as("s"))
    Oracle.assertEquivalent(
      totals,
      "SELECT month, SUM(CAST(m AS DOUBLE)) AS s FROM r GROUP BY month",
      "r" -> monthly.select("month", "m"))
  }

  test("monthly revenue cube matches DuckDB for the returnflag slices") {
    val cube = CubeFrames.cubeDF(monthly, "month", Seq("l_returnflag", "l_linestatus"), "m")
    val slices = cube.where(col("gid") === 1)
      .select(col("month"), col("l_returnflag"), col("agg_value").as("s"))
    Oracle.assertEquivalent(
      slices,
      "SELECT month, l_returnflag, SUM(CAST(m AS DOUBLE)) AS s FROM r GROUP BY month, l_returnflag",
      "r" -> monthly.select("month", "l_returnflag", "m"))
  }

  test("the explanation cube over TPC-H has the expected candidate count") {
    val cube = ExplanationCube.build(monthly, "month", Seq("l_returnflag", "l_linestatus"), "m")
    // 3 return flags + 2 line statuses + 6 combinations
    assert(cube.epsilon == 3 + 2 + 6)
    assert(cube.n == cube.times.size)
  }

  test("TSExplain runs end-to-end on the TPC-H monthly revenue series") {
    val cube = ExplanationCube.build(monthly, "month", Seq("l_returnflag", "l_linestatus"), "m")
    val res = TSExplain.explain(cube, TSConfig(kMax = 8))
    val e = res.explanation
    assert(e.scheme.k >= 1 && e.scheme.k <= 8)
    assert(e.perSegment.nonEmpty)
    // every surfaced explanation is a real data slice with its cube γ
    for ((seg, top) <- e.perSegment; r <- top.ranked) {
      assert(cube.contains(r.expl))
      assert(math.abs(cube.gamma(cube.idOf(r.expl), seg) - r.gamma) < 1e-9)
    }
  }

  test("uniform random data yields a near-flat K-variance curve (no spurious structure)") {
    val cube = ExplanationCube.build(monthly, "month", Seq("l_returnflag"), "m")
    val res = TSExplain.explain(cube, TSConfig(kMax = 6))
    val curve = res.explanation.kVarianceCurve.map(_._2)
    assert(curve.zip(curve.tail).forall { case (a, b) => b <= a + 1e-9 })
  }

  test("per-explanation series sum to the total (decomposable aggregate)") {
    val cube = ExplanationCube.build(monthly, "month", Seq("l_returnflag"), "m")
    val flagIds = cube.expls.indices.filter(i => cube.expls(i).order == 1)
    for (t <- 0 until cube.n) {
      val s = flagIds.map(cube.series(_)(t)).sum
      assert(math.abs(s - cube.total(t)) < 1e-4, s"t=$t")
    }
  }
}
