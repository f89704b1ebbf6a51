package repro.cube

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._

/** Spark orchestration of the TSExplain pipeline.
  *
  * Two distributed paths:
  *   1. [[topLists]] is the [[TopLists]] source that fans each batch of the
  *      per-segment top-m stage (the pipeline bottleneck, §5.2) out over
  *      executors with the explanation cube broadcast; the rest of
  *      [[TSExplain.explain]] runs on the driver over the collected lists.
  *   2. [[explainGrouped]] treats the whole pipeline as a custom
  *      dynamic-programming function applied per *grouped time series*
  *      (`groupByKey(seriesId).mapGroups`), so a fleet of independent series
  *      (e.g. the 140 synthetic datasets of §7.1.1) is explained in parallel.
  */
object SparkTSExplain {

  /** Distributed module (b): top-m lists of `segments`, in segment order.
    * The cube and the segments' endpoints are broadcast once; each task
    * solves one slice of segment indices, and the broadcast is destroyed
    * once the lists are collected.
    */
  def topIdsPerSegment(
      spark: SparkSession,
      cube: ExplCube,
      segments: Seq[Segment],
      cfg: TSConfig,
  ): Array[TopIds] = {
    val sc = spark.sparkContext
    val bc = sc.broadcast((cube, segments.map(_.i).toArray, segments.map(_.j).toArray))
    val slices = math.max(1, math.min(64, segments.size / 64))
    try
      sc.parallelize(0 until slices, slices).flatMap { b =>
        val (c, is, js) = bc.value
        val solve = TopLists.solver(c, cfg)
        val from = (b.toLong * is.length / slices).toInt
        val until = ((b + 1).toLong * is.length / slices).toInt
        (from until until).iterator.map(k => solve(Segment(is(k), js(k))))
      }.collect()
    finally bc.destroy()
  }

  /** The [[TopLists]] source that solves each batch with [[topIdsPerSegment]]. */
  def topLists(spark: SparkSession): TopLists =
    (cube, cfg, segments) => topIdsPerSegment(spark, cube, segments, cfg)

  /** One row of a many-series relation: (seriesId, timeIndex, category, m). */
  type SeriesRow = (String, Int, String, Double)

  /** One explained series: (seriesId, K, interiorCuts, totalVariance). */
  type GroupedResult = (String, Int, Seq[Int], Double)

  /** The whole TSExplain pipeline as a DP over grouped time series: group the
    * relation by series id and run cube-building + CA + K-Segmentation DP +
    * elbow inside `mapGroups` on executors, one task per series.
    */
  def explainGrouped(
      spark: SparkSession,
      rows: Dataset[SeriesRow],
      cfg: TSConfig,
      attr: String = "category",
  ): Dataset[GroupedResult] = {
    import spark.implicits._
    rows
      .groupByKey(_._1)
      .mapGroups { (sid, it) =>
        val recs = it.toVector
        val n = recs.iterator.map(_._2).max + 1
        val cube = ExplCube.fromRecords(
          Seq(attr),
          (0 until n).map(_.toString),
          recs.map { case (_, t, c, m) => (Map(attr -> c), t, m) },
          cfg.maxOrder,
        )
        val res = TSExplain.explain(cube, cfg)
        (sid, res.explanation.scheme.k, res.explanation.scheme.interior, res.explanation.totalVariance)
      }
  }
}
