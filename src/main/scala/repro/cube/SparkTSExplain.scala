package repro.cube

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._

/** Spark orchestration of the TSExplain pipeline.
  *
  * Two distributed paths:
  *   1. [[topLists]] is the [[TopLists]] source that fans each batch of the
  *      per-segment top-m stage (the pipeline bottleneck, §5.2) out over
  *      executors with the explanation cube broadcast, and returns the
  *      batch's distinct lists with one index per segment; the rest of
  *      [[TSExplain.explain]] runs on the driver over the collected lists.
  *   2. [[explainGrouped]] treats the whole pipeline as a custom
  *      dynamic-programming function applied per *grouped time series*
  *      (`groupByKey(seriesId).mapGroups`), so a fleet of independent series
  *      (e.g. the 140 synthetic datasets of §7.1.1) is explained in parallel.
  */
object SparkTSExplain {

  /** The [[TopLists]] source on executors: the cube and the segments'
    * endpoints are broadcast once, each task rebuilds one slice of the
    * segments and interns its lists ([[TopLists.solveRange]]), and returns
    * them with its segments' indices, so a list travels once per task. The
    * driver merges the tasks in slice order and destroys the broadcast.
    */
  def topLists(spark: SparkSession): TopLists = (cube, cfg, segments) => {
    val sc = spark.sparkContext
    val bc = sc.broadcast((cube, segments.map(_.i).toArray, segments.map(_.j).toArray))
    val slices = math.max(1, math.min(64, segments.size / 64))
    val parts =
      try
        sc.parallelize(0 until slices, slices).map { b =>
          val (c, is, js) = bc.value
          val from = (b.toLong * is.length / slices).toInt
          val until = ((b + 1).toLong * is.length / slices).toInt
          val slice = (from until until).map(k => Segment(is(k), js(k)))
          val of = new Array[Int](slice.size)
          (TopLists.solveRange(TopLists.solver(c, cfg), slice, 0, slice.size, of), of)
        }.collect()
      finally bc.destroy()
    val of = new Array[Int](segments.size)
    var from = 0
    val starts = parts.toIndexedSeq.map { case (lists, local) =>
      System.arraycopy(local, 0, of, from, local.length)
      from += local.length
      (from - local.length, lists)
    }
    TopLists.merge(starts, of)
  }

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
