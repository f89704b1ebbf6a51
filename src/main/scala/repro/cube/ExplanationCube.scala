package repro.cube

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Expl, ExplCube}

/** Spark-side precomputation (Section 5.2, module a).
  *
  * One Catalyst `CUBE` aggregation over the relation computes the aggregated
  * time series of *every* candidate explanation at once: grouping sets over
  * (T, A1..Ak) where T is always kept; `grouping_id()` identifies which
  * explain-by attributes are concrete in each output row, i.e. which
  * conjunction (explanation) the row belongs to. Rows whose conjunction
  * order exceeds β̄ are dropped with a plain filter on the popcount of the
  * grouping id. The result is collected into the in-memory [[ExplCube]] that
  * the CA / K-Segmentation stages consume with O(1) γ lookups.
  */
object ExplanationCube {

  /** The raw cube DataFrame: columns (timeCol, attrs…, gid, agg_value), one
    * row per (explanation, timestamp) — including the order-0 "total" rows
    * where every attribute is aggregated. Time-aggregated rows are dropped.
    */
  def cubeDF(
      df: DataFrame,
      timeCol: String,
      attrs: Seq[String],
      measureCol: String,
      maxOrder: Int = 3,
  ): DataFrame = {
    require(attrs.nonEmpty && attrs.size <= 30, "1..30 explain-by attributes")
    val gcols = col(timeCol) +: attrs.map(col)
    val cubed = df
      .cube(gcols: _*)
      .agg(sum(col(measureCol)).as("agg_value"), grouping_id().as("gid"))
    // grouping_id bit layout: first grouping column = most significant bit;
    // a set bit means the column is aggregated away in that row.
    val k = attrs.size
    val timeBit = 1L << k // timeCol is first of (k+1) columns
    val order = (0 until k)
      .map(i => when((col("gid").cast("long").bitwiseAND(lit(1L << (k - 1 - i)))) === 0L, 1).otherwise(0))
      .reduce(_ + _)
    cubed
      .where((col("gid").cast("long").bitwiseAND(lit(timeBit))) === 0L)
      .where(order <= maxOrder)
  }

  /** Build the in-memory [[ExplCube]]: run [[cubeDF]], collect, and pivot the
    * rows into per-explanation series aligned on the sorted time axis.
    * Timestamps absent from an explanation's slice contribute 0 (empty SUM).
    */
  def build(
      df: DataFrame,
      timeCol: String,
      attrs: Seq[String],
      measureCol: String,
      maxOrder: Int = 3,
  ): ExplCube = {
    val timesOrdered: Vector[String] =
      df.select(col(timeCol)).distinct().orderBy(col(timeCol)).collect().map(_.get(0).toString).toVector
    val tIdx = timesOrdered.zipWithIndex.toMap
    val n = timesOrdered.size
    val k = attrs.size

    val rows = cubeDF(df, timeCol, attrs, measureCol, maxOrder).collect()
    val total = new Array[Double](n)
    val acc = scala.collection.mutable.LinkedHashMap.empty[Expl, Array[Double]]
    for (r <- rows) {
      val t = tIdx(r.get(0).toString)
      val gid = r.getAs[Any]("gid").toString.toLong
      val concrete = (0 until k).filter(i => (gid & (1L << (k - 1 - i))) == 0L)
      val v = r.getAs[Any]("agg_value") match {
        case null                         => 0.0
        case d: java.lang.Number          => d.doubleValue()
        case bd: java.math.BigDecimal     => bd.doubleValue()
        case other                        => other.toString.toDouble
      }
      if (concrete.isEmpty) total(t) = v
      else {
        val e = Expl.of(concrete.map(i => attrs(i) -> String.valueOf(r.get(1 + i))): _*)
        acc.getOrElseUpdate(e, new Array[Double](n))(t) = v
      }
    }
    ExplCube.fromSeries(attrs, timesOrdered, total, acc.toSeq)
  }
}
