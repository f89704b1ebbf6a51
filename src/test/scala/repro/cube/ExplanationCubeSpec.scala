package repro.cube

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec, SynthData}
import repro.core._
import repro.synth.{RealWorldSim, SyntheticGen}

class ExplanationCubeSpec extends SparkSpec {

  lazy val synthDs = SyntheticGen.generate(n = 25, snrDb = 40, seed = 77)
  lazy val synthDf: DataFrame = SynthData.synthetic(spark, synthDs).cache()

  // ------------------------------------------ build's cube vs the oracle

  test("cubeDF total series matches DuckDB GROUP BY t") {
    val cube = CubeFrames.cubeDF(synthDf, "t", Seq("category"), "m")
    val totals = cube.where(col("gid") =!= 0).select(col("t"), col("agg_value").as("s"))
    Oracle.assertEquivalent(
      totals,
      "SELECT t, SUM(CAST(m AS DOUBLE)) AS s FROM r GROUP BY t",
      "r" -> synthDf)
  }

  test("cubeDF per-category series matches DuckDB GROUP BY t, category") {
    val cube = CubeFrames.cubeDF(synthDf, "t", Seq("category"), "m")
    val slices = cube.where(col("gid") === 0).select(col("t"), col("category"), col("agg_value").as("s"))
    Oracle.assertEquivalent(
      slices,
      "SELECT t, category, SUM(CAST(m AS DOUBLE)) AS s FROM r GROUP BY t, category",
      "r" -> synthDf)
  }

  test("cubeDF order-2 slices on a 2-attribute relation match DuckDB") {
    val sim = RealWorldSim.liquor(pairsPerCell = 3)
    val df = SynthData.explainRelation(spark, Seq("BV", "P", "CN", "VN"),
      sim.records().filter(_._2 < 20)).cache()
    val cube = CubeFrames.cubeDF(df, "t", Seq("BV", "P"), "m", maxOrder = 2)
    // gid layout for (t, BV, P): BV bit = 2, P bit = 1; gid==0 → both concrete
    val cells = cube.where(col("gid") === 0).select(col("t"), col("BV"), col("P"), col("agg_value").as("s"))
    Oracle.assertEquivalent(
      cells,
      "SELECT t, BV, P, SUM(CAST(m AS DOUBLE)) AS s FROM r GROUP BY t, BV, P",
      "r" -> df.select("BV", "P", "t", "m"))
    val bvOnly = cube.where(col("gid") === 1).select(col("t"), col("BV"), col("agg_value").as("s"))
    Oracle.assertEquivalent(
      bvOnly,
      "SELECT t, BV, SUM(CAST(m AS DOUBLE)) AS s FROM r GROUP BY t, BV",
      "r" -> df.select("BV", "t", "m"))
  }

  test("cubeDF drops rows that aggregate away the time dimension") {
    val cube = CubeFrames.cubeDF(synthDf, "t", Seq("category"), "m")
    assert(cube.where(col("t").isNull).count() == 0)
  }

  test("cubeDF maxOrder filter drops deep conjunctions") {
    val sim = RealWorldSim.liquor(pairsPerCell = 2)
    val df = SynthData.explainRelation(spark, Seq("BV", "P", "CN", "VN"),
      sim.records().filter(_._2 < 10))
    val c1 = CubeFrames.cubeDF(df, "t", Seq("BV", "P", "CN", "VN"), "m", maxOrder = 1)
    // with maxOrder=1 every kept row has ≤ 1 concrete attribute
    val bad = c1.where(
      (when(col("BV").isNotNull, 1).otherwise(0) +
        when(col("P").isNotNull, 1).otherwise(0) +
        when(col("CN").isNotNull, 1).otherwise(0) +
        when(col("VN").isNotNull, 1).otherwise(0)) > 1)
    assert(bad.count() == 0)
  }

  // ------------------------------------------------ build vs the core cube

  test("Spark-built cube equals the driver-built cube on the synthetic dataset") {
    val sparkCube = ExplanationCube.build(synthDf, "t", Seq("category"), "m")
    val coreCube = ExplCube.fromRecords(
      Seq("category"), (0 until synthDs.cube.n).map(_.toString), SyntheticGen.records(synthDs))
    assert(sparkCube.epsilon == coreCube.epsilon)
    assert(sparkCube.expls.toSet == coreCube.expls.toSet)
    for (e <- coreCube.expls) {
      val a = sparkCube.series(sparkCube.idOf(e))
      val b = coreCube.series(coreCube.idOf(e))
      assert(a.zip(b).forall { case (x, y) => math.abs(x - y) < 1e-6 }, s"series of $e")
    }
    assert(sparkCube.total.zip(coreCube.total).forall { case (x, y) => math.abs(x - y) < 1e-6 })
  }

  test("Spark-built cube time axis is sorted by the time column") {
    val sparkCube = ExplanationCube.build(synthDf, "t", Seq("category"), "m")
    assert(sparkCube.times == sparkCube.times.sortBy(_.toInt).map(_.toString))
  }

  test("Spark-built multi-attribute cube equals the core cube (liquor sample)") {
    val sim = RealWorldSim.liquor(pairsPerCell = 2)
    val recs = sim.records().filter(_._2 < 15)
    val df = SynthData.explainRelation(spark, Seq("BV", "P", "CN", "VN"), recs)
    val sparkCube = ExplanationCube.build(df, "t", Seq("BV", "P", "CN", "VN"), "m", maxOrder = 3)
    val times = (0 until 15).map(_.toString)
    val coreCube = ExplCube.fromRecords(Seq("BV", "P", "CN", "VN"), times, recs, maxOrder = 3)
    assert(sparkCube.epsilon == coreCube.epsilon)
    for (e <- coreCube.expls.take(200)) {
      val a = sparkCube.series(sparkCube.idOf(e))
      val b = coreCube.series(coreCube.idOf(e))
      assert(a.zip(b).forall { case (x, y) => math.abs(x - y) < 1e-6 }, s"series of $e")
    }
  }

  test("build with dedupIdentical collapses hierarchy duplicates (S&P 500)") {
    val sim = RealWorldSim.sp500()
    val recs = sim.records().filter(_._2 < 12) // small time window for speed
    val df = SynthData.explainRelation(spark, Seq("category", "subcategory", "stock"), recs)
    val cube = ExplanationCube.build(df, "t", Seq("category", "subcategory", "stock"), "m", maxOrder = 3)
    assert(cube.dedupIdenticalSeries.epsilon == 610)
  }

  test("absent (explanation, timestamp) combinations aggregate to 0") {
    val recs = Seq(
      (Map("a" -> "x"), 0, 5.0),
      (Map("a" -> "y"), 1, 7.0), // a=x has no rows at t=1
    )
    val df = SynthData.explainRelation(spark, Seq("a"), recs)
    val cube = ExplanationCube.build(df, "t", Seq("a"), "m")
    assert(cube.series(cube.idOf(Expl.of("a" -> "x"))).toSeq == Seq(5.0, 0.0))
  }

  // ------------------------------------------ one scan, time axis, nulls

  /** Records over (a, b, c) on 12 days; b is absent (null in the relation)
    * on about a third of them and a real "null" string on some others.
    */
  private def recordsWithNullB: Seq[(Map[String, String], Int, Double)] = {
    val rnd = new scala.util.Random(5)
    Seq.tabulate(400) { i =>
      val b = rnd.nextInt(6) match {
        case 0 | 1 => None
        case 2     => Some("null")
        case v     => Some(s"b$v")
      }
      val vals = Map("a" -> s"a${rnd.nextInt(3)}", "c" -> s"c${rnd.nextInt(2)}") ++ b.map("b" -> _)
      (vals, i % 12, rnd.nextInt(100).toDouble)
    }
  }

  test("build scans the cached relation once") {
    val df = SynthData.explainRelation(spark, Seq("a", "b", "c"), recordsWithNullB).cache()
    val rows = df.count()
    ListenerBusDrain(spark.sparkContext)
    val scanned = new AtomicLong
    val listener = new QueryExecutionListener with AdaptiveSparkPlanHelper {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        scanned.addAndGet(collect(qe.executedPlan) {
          case s: InMemoryTableScanExec => s.metrics("numOutputRows").value
        }.sum)
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      ExplanationCube.build(df, "t", Seq("a", "b", "c"), "m")
      ListenerBusDrain(spark.sparkContext)
    } finally spark.listenerManager.unregister(listener)
    df.unpersist()
    assert(scanned.get == rows)
  }

  test("build runs one job of at most one task per core and no shuffle") {
    val df = SynthData.explainRelation(spark, Seq("a", "b", "c"), recordsWithNullB).repartition(16).cache()
    assert(df.count() == recordsWithNullB.size)
    ListenerBusDrain(spark.sparkContext)
    val jobs = new AtomicLong
    val resultTasks = new AtomicLong
    val otherTasks = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        (if (e.taskType == "ResultTask") resultTasks else otherTasks).incrementAndGet()
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      ExplanationCube.build(df, "t", Seq("a", "b", "c"), "m")
      ListenerBusDrain(spark.sparkContext)
    } finally spark.sparkContext.removeSparkListener(listener)
    df.unpersist()
    assert(jobs.get == 1, s"${jobs.get} jobs")
    assert(otherTasks.get == 0, s"${otherTasks.get} shuffle map tasks")
    assert(resultTasks.get > 0 && resultTasks.get <= spark.sparkContext.defaultParallelism,
      s"${resultTasks.get} result tasks")
  }

  test("build's time axis is Spark's ordering of T for int, string and date columns") {
    val sess = spark
    import sess.implicits._
    // int days past 9, so string order differs from numeric order
    val ints = Seq((12, "x", 1.0), (3, "y", 2.0), (10, "x", 3.0), (9, "y", 4.0), (3, "x", 5.0)).toDF("t", "a", "m")
    val months = Seq(("2021-11", "x", 1.0), ("2020-02", "y", 2.0), ("2021-01", "x", 3.0), ("2020-02", "x", 4.0))
      .toDF("t", "a", "m")
    val dates = months.select(to_date(col("t"), "yyyy-MM").as("t"), col("a"), col("m"))
    assert(dates.schema("t").dataType == DateType)
    // Spark orders strings by UTF-8 bytes: U+FFFD sorts before U+1F600, unlike String.compareTo
    val labels = Seq(("\uD83D\uDE00", "x", 1.0), ("\uFFFD", "y", 2.0), ("z", "x", 3.0)).toDF("t", "a", "m")
    for (df <- Seq(ints, months, dates, labels)) {
      val expected = df.select(col("t")).distinct().orderBy(col("t")).collect().map(_.get(0).toString).toVector
      assert(ExplanationCube.build(df, "t", Seq("a"), "m").times == expected)
    }
  }

  test("a null time value is an IllegalArgumentException naming the time column") {
    val schema = StructType(Seq(
      StructField("day", IntegerType), StructField("a", StringType), StructField("m", DoubleType)))
    val df = spark.createDataFrame(
      java.util.Arrays.asList(Row(0, "x", 1.0), Row(null, "y", 2.0), Row(1, "y", 3.0)), schema)
    val e = intercept[IllegalArgumentException](ExplanationCube.build(df, "day", Seq("a"), "m"))
    assert(e.getMessage.contains("'day'"))
  }

  test("null explain-by values count as a missing attribute, as in the driver cube") {
    val attrs = Seq("a", "b", "c")
    val recs = recordsWithNullB
    val df = SynthData.explainRelation(spark, attrs, recs)
    assert(df.where(col("b").isNull).count() > 0)
    for (maxOrder <- Seq(2, 3)) {
      val sparkCube = ExplanationCube.build(df, "t", attrs, "m", maxOrder)
      val coreCube = ExplCube.fromRecords(attrs, (0 until 12).map(_.toString), recs, maxOrder)
      assert(sparkCube.expls.toSet == coreCube.expls.toSet, s"maxOrder=$maxOrder")
      assert(sparkCube.epsilon == coreCube.epsilon)
      for (e <- coreCube.expls) {
        val a = sparkCube.series(sparkCube.idOf(e))
        val b = coreCube.series(coreCube.idOf(e))
        assert(a.zip(b).forall { case (x, y) => math.abs(x - y) < 1e-6 }, s"series of $e")
      }
      assert(sparkCube.total.zip(coreCube.total).forall { case (x, y) => math.abs(x - y) < 1e-6 })
    }
  }

  // ------------------------------------------- every partitioning agrees

  test("build agrees with fromRecords at 1, 3 and 17 partitions, cell by cell and in every answer") {
    val configs = Seq(TSConfig(), TSConfig(filterRatio = Some(0.05)).withAllOpts)
    def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))
    def closeAll(a: collection.Seq[Double], b: collection.Seq[Double]): Boolean = a.size == b.size && a.zip(b).forall { case (x, y) => close(x, y) }
    def sameAnswer(a: Explanation, b: Explanation): Boolean =
      a.scheme == b.scheme && a.kVarianceCurve.map(_._1) == b.kVarianceCurve.map(_._1) &&
        closeAll(a.totalVariance +: a.kVarianceCurve.map(_._2), b.totalVariance +: b.kVarianceCurve.map(_._2)) &&
        a.perSegment.zip(b.perSegment).forall { case ((sa, ta), (sb, tb)) =>
          sa == sb && ta.ranked.map(r => (r.expl, r.tau)) == tb.ranked.map(r => (r.expl, r.tau)) &&
            closeAll(ta.ranked.map(_.gamma), tb.ranked.map(_.gamma)) && closeAll(ta.best, tb.best)
        }
    val attrs = Seq("A0", "A1")
    val prop = Prop.forAllNoShrink(InvariantsSpec.relations) { rel =>
      val driver = rel.cube
      // A tied segment's list follows the rounding of CA's sums (InvariantsSpec),
      // and the two cubes may round a cell differently.
      val untied = Seq(driver, driver.filtered(0.05)).forall(!InvariantsSpec.tied(_, 3))
      untied ==> {
        val df = SynthData.explainRelation(spark, attrs, rel.records)
        Seq(1, 3, 17).forall { p =>
          val cube = ExplanationCube.build(df.repartition(p), "t", attrs, "m")
          cube.times == driver.times && cube.expls == driver.expls && closeAll(cube.total, driver.total) &&
            driver.expls.indices.forall(id => closeAll(cube.series(id), driver.series(id))) &&
            configs.forall(cfg => sameAnswer(TSExplain.explain(cube, cfg).explanation, TSExplain.explain(driver, cfg).explanation))
        } :| s"relation $rel"
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(20).withInitialSeed(Seed(2036L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status)
  }

  // ------------------------------------ one stage vs the Catalyst aggregate

  /** A random relation (t, a0, a1, a2, m) of 1 to 120 rows: a0 and a2 are
    * string attributes and a1 an int one, each null in about one row of
    * six; m is positive or null, and null in every row of the a0 = "void"
    * slice; t is an int (past 9, so string order differs), a string or a
    * date, chosen by `timeKind`.
    */
  private def randomRelation(seed: Long, timeKind: Int): DataFrame = {
    val rnd = new scala.util.Random(seed)
    def orNull(v: => Any): Any = if (rnd.nextInt(6) == 0) null else v
    val rows = Seq.fill(1 + rnd.nextInt(120)) {
      val day = rnd.nextInt(16) - 3
      val t = timeKind match {
        case 0 => day
        case 1 => s"w$day"
        case _ => java.sql.Date.valueOf(java.time.LocalDate.of(2020, 2, 27).plusDays(day))
      }
      val a0 = orNull(Seq("x", "y", "void")(rnd.nextInt(3)))
      val a1 = orNull(rnd.nextInt(4) - 1)
      val a2 = orNull(Seq("p", "\uFFFD", "\uD83D\uDE00")(rnd.nextInt(3)))
      val m = if (a0 == "void" || rnd.nextInt(6) == 0) null else 100 * rnd.nextDouble()
      Row(t, a0, a1, a2, m)
    }
    val schema = StructType(Seq(
      StructField("t", Seq(IntegerType, StringType, DateType)(timeKind)), StructField("a0", StringType),
      StructField("a1", IntegerType), StructField("a2", StringType), StructField("m", DoubleType)))
    spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
  }

  test("build groups -0.0 with 0.0, every NaN together, and strings by their collation") {
    val otherNaN = java.lang.Double.longBitsToDouble(0x7ff8000000000001L)
    val rows = Seq(Row(0, 0.0, "a", 1.0), Row(0, -0.0, "a", 2.0), Row(1, Double.NaN, "b", 3.0),
      Row(1, otherNaN, "B", 4.0), Row(1, -0.0, "A", 5.0), Row(2, 1.5, "\u00e9", 6.0))
    val schema = StructType(Seq(StructField("t", IntegerType), StructField("d", DoubleType),
      StructField("s", StringType), StructField("m", DoubleType)))
    val df = spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
      .select(col("t"), col("d"), collate(col("s"), "UTF8_LCASE").as("s"), col("m"))
    val byD = ExplanationCube.build(df, "t", Seq("d"), "m")
    val ref = CubeFrames.catalystCube(df, "t", Seq("d"), "m")
    assert(byD.expls == Seq("0.0", "1.5", "NaN").map(v => Expl.of("d" -> v)) && byD.expls == ref.expls)
    assert(byD.series.indices.forall(id => byD.series(id).sameElements(ref.series(id))))
    // One explanation per value up to case, labelled by its first row in slice order.
    val byS = ExplanationCube.build(df, "t", Seq("s"), "m")
    assert(byS.expls == Seq("a", "b", "\u00e9").map(v => Expl.of("s" -> v)))
    assert(byS.series(0).toSeq == Seq(3.0, 5.0, 0.0) && byS.series(1).toSeq == Seq(0.0, 7.0, 0.0))
  }

  test("build groups decimal attributes and timestamp times as the Catalyst cube does") {
    val rows = Seq(Row("2021-03-01 10:00:00", "1.50", 1.0), Row("2021-03-01 09:00:00", "1.5", 2.0),
      Row("2021-03-01 10:00:00", "-0.25", 3.0), Row("2021-03-02 00:00:00", "1.50", 4.0))
    val schema = StructType(Seq(StructField("t", StringType), StructField("p", StringType), StructField("m", DoubleType)))
    val df = spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
      .select(to_timestamp(col("t")).as("t"), col("p").cast(DecimalType(6, 2)).as("p"), col("m"))
    val cube = ExplanationCube.build(df, "t", Seq("p"), "m")
    val ref = CubeFrames.catalystCube(df, "t", Seq("p"), "m")
    assert(cube.times == ref.times && cube.times.size == 3)
    assert(cube.expls == ref.expls && cube.epsilon == 2)
    assert(cube.series.indices.forall(id => cube.series(id).sameElements(ref.series(id))))
  }

  test("build equals the Catalyst GROUPING SETS cube and repeats bit for bit") {
    val attrs = Seq("a0", "a1", "a2")
    def close(a: Array[Double], b: Array[Double]): Boolean = a.length == b.length &&
      a.indices.forall(i => math.abs(a(i) - b(i)) <= 1e-12 * math.max(math.abs(a(i)), math.abs(b(i))))
    def same(a: ExplCube, b: ExplCube): Boolean = a.times == b.times && a.expls == b.expls &&
      java.util.Arrays.equals(a.total, b.total) && a.series.indices.forall(id => java.util.Arrays.equals(a.series(id), b.series(id)))
    val cases = for {
      seed <- Gen.long
      timeKind <- Gen.choose(0, 2)
      maxOrder <- Gen.choose(0, 3)
    } yield (seed, timeKind, maxOrder)
    val prop = Prop.forAllNoShrink(cases) { case (seed, timeKind, maxOrder) =>
      val df = randomRelation(seed, timeKind)
      Seq(1, 3, 17).forall { p =>
        val part = df.repartition(p).cache()
        try {
          val ref = CubeFrames.catalystCube(part, "t", attrs, "m", maxOrder)
          val cube = ExplanationCube.build(part, "t", attrs, "m", maxOrder)
          cube.times == ref.times && cube.expls == ref.expls && close(cube.total, ref.total) &&
            ref.expls.indices.forall(id => close(cube.series(id), ref.series(id))) &&
            same(cube, ExplanationCube.build(part, "t", attrs, "m", maxOrder))
        } finally part.unpersist()
      } :| s"seed $seed, time kind $timeKind, maxOrder $maxOrder"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(24).withInitialSeed(Seed(2041L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status)
  }
}
