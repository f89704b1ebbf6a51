package repro

/** The oracle's numeric comparison: engines that add the same doubles in
  * different orders must agree, and a genuinely wrong sum must not.
  */
class OracleSpec extends SparkSpec {

  import spark.implicits._

  /** Spark's single row (k = "F", rev = `rev`) against DuckDB's SUM of `values`. */
  def check(rev: Double, values: Seq[Double]): Unit =
    Oracle.assertEquivalent(
      Seq(("F", rev)).toDF("k", "rev"),
      "SELECT k, SUM(CAST(v AS DOUBLE)) AS rev FROM r GROUP BY k",
      "r" -> values.map(v => ("F", v)).toDF("k", "v"))

  test("sums one ulp apart pass even when they straddle a 6-decimal rounding boundary") {
    // The first double above 180864926.78 whose 6-decimal rendering differs
    // from its successor's.
    val lo = Iterator.iterate(180864926.78)(math.nextUp).find(x => f"$x%.6f" != f"${math.nextUp(x)}%.6f").get
    val hi = math.nextUp(lo)
    check(lo, Seq(hi))
    check(hi, Seq(lo))
  }

  test("a sum wrong by one row's value fails") {
    val values = (1 to 200).map(i => 900.0 + i * 451.37)
    check(values.sum, values) // the same sum passes
    intercept[IllegalArgumentException](check(values.sum + values.head, values))
  }
}
