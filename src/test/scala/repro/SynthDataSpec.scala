package repro

import org.apache.spark.sql.functions._

/** The provided TPC-H-lite generators, exercised through Spark aggregation
  * and join paths with the DuckDB oracle — the substrate every other
  * relation builder in this repo piggybacks on.
  */
class SynthDataSpec extends SparkSpec {

  lazy val li = SynthData.lineitem(spark, sf = 0.002).cache()
  lazy val ord = SynthData.orders(spark, sf = 0.002).cache()

  test("lineitem row count scales with sf") {
    assert(li.count() == 12000)
  }

  test("orders row count scales with sf") {
    assert(ord.count() == 3000)
  }

  test("generators are deterministic in (sf, seed)") {
    val a = SynthData.lineitem(spark, sf = 0.001).agg(sum("l_extendedprice")).collect()(0).getDouble(0)
    val b = SynthData.lineitem(spark, sf = 0.001).agg(sum("l_extendedprice")).collect()(0).getDouble(0)
    assert(a == b)
  }

  test("group-by aggregation over lineitem matches DuckDB") {
    val q = li.groupBy("l_returnflag").agg(
      sum("l_quantity").as("sq"), count(lit(1)).as("c"))
    Oracle.assertEquivalent(
      q,
      "SELECT l_returnflag, SUM(CAST(l_quantity AS DOUBLE)) AS sq, COUNT(*) AS c " +
        "FROM lineitem GROUP BY l_returnflag",
      "lineitem" -> li.select("l_returnflag", "l_quantity"))
  }

  test("join + aggregation lineitem ⋈ orders matches DuckDB (shuffle path)") {
    val q = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
      .groupBy("o_orderstatus")
      .agg(sum("l_extendedprice").as("rev"))
    Oracle.assertEquivalent(
      q,
      "SELECT o_orderstatus, SUM(CAST(l_extendedprice AS DOUBLE)) AS rev " +
        "FROM lineitem l JOIN orders o ON CAST(l.l_orderkey AS BIGINT) = CAST(o.o_orderkey AS BIGINT) " +
        "GROUP BY o_orderstatus",
      "lineitem" -> li.select("l_orderkey", "l_extendedprice"),
      "orders" -> ord.select("o_orderkey", "o_orderstatus"))
  }

  test("time-grouped aggregation (the TSExplain query shape) matches DuckDB") {
    val q = li.groupBy(month(col("l_shipdate")).as("mo")).agg(sum("l_quantity").as("sq"))
    Oracle.assertEquivalent(
      q,
      "SELECT CAST(EXTRACT(month FROM CAST(l_shipdate AS DATE)) AS INT) AS mo, " +
        "SUM(CAST(l_quantity AS DOUBLE)) AS sq FROM lineitem GROUP BY mo",
      "lineitem" -> li.select("l_shipdate", "l_quantity"))
  }

  test("explainRelation emits the requested schema and preserves totals under splitting") {
    val recs = Seq((Map("a" -> "x"), 0, 12.0), (Map("a" -> "y"), 1, 6.0))
    val df1 = SynthData.explainRelation(spark, Seq("a"), recs, rowsPerRecord = 1)
    val df3 = SynthData.explainRelation(spark, Seq("a"), recs, rowsPerRecord = 3)
    assert(df1.columns.toSeq == Seq("a", "t", "m"))
    assert(df3.count() == 6)
    val s1 = df1.agg(sum("m")).collect()(0).getDouble(0)
    val s3 = df3.agg(sum("m")).collect()(0).getDouble(0)
    assert(math.abs(s1 - s3) < 1e-9)
  }

  test("explainRelation per-slice totals match DuckDB at rowsPerRecord > 1") {
    val ds = repro.synth.SyntheticGen.generate(n = 20, snrDb = 40, seed = 9)
    val df = SynthData.synthetic(spark, ds, rowsPerRecord = 4)
    val q = df.groupBy("t", "category").agg(sum("m").as("s"))
    Oracle.assertEquivalent(
      q,
      "SELECT t, category, SUM(CAST(m AS DOUBLE)) AS s FROM r GROUP BY t, category",
      "r" -> df)
  }

  test("explainRelation returns each record rowsPerRecord times, in record order, with m / rowsPerRecord") {
    val rnd = new scala.util.Random(17)
    // 60,060 rows: three slices, of 333, 334 and 334 records
    val recs = Seq.tabulate(1001) { i =>
      val vals = Map("a" -> s"a${rnd.nextInt(4)}") ++ (if (rnd.nextInt(3) == 0) Map.empty else Map("b" -> s"b${rnd.nextInt(5)}"))
      (vals, i % 37, rnd.nextDouble() * 100)
    }
    val df = SynthData.explainRelation(spark, Seq("a", "b"), recs, rowsPerRecord = 60)
    assert(df.rdd.getNumPartitions == 3)
    val expected = recs.flatMap { case (vals, t, m) =>
      Seq.fill(60)(org.apache.spark.sql.Row(vals("a"), vals.getOrElse("b", null), t, m / 60))
    }
    assert(df.collect().toSeq == expected)
  }

  test("no partition of the covid relation at 50 rows per record serializes past 256 KB") {
    val df = SynthData.covidDaily(spark, rowsPerRecord = 50)
    val sizes = df.rdd.partitions.map { p =>
      val bytes = new java.io.ByteArrayOutputStream
      val out = new java.io.ObjectOutputStream(bytes)
      out.writeObject(p)
      out.close()
      bytes.size
    }
    assert(sizes.length == 50)
    assert(sizes.max <= 256 * 1024, s"largest partition serializes to ${sizes.max} bytes")
  }

  test("zipf keys are skewed toward low ranks") {
    val df = SynthData.zipfKeys(spark, rows = 20000, nKeys = 1000)
    val top = df.groupBy("k").count().orderBy(desc("count")).limit(1).collect()(0)
    assert(top.getLong(0) <= 3, s"most frequent key should be a low rank, got ${top.getLong(0)}")
  }

  test("uniform keys cover the key space roughly evenly") {
    val df = SynthData.uniformKeys(spark, rows = 20000, nKeys = 10)
    val counts = df.groupBy("k").count().collect().map(_.getLong(1))
    assert(counts.length == 10)
    assert(counts.max < counts.min * 2L)
  }
}
