package repro.cube

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.RowOrdering
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.{Expl, ExplCube}

/** The explanation cube as a DataFrame, for checks against other engines,
  * and the Catalyst `GROUPING SETS` aggregate that [[ExplanationCube.build]]
  * must agree with.
  */
object CubeFrames {

  /** [[ExplanationCube.build]]'s cube in the layout of a `GROUPING SETS`
    * aggregate: columns (timeCol, attrs…, agg_value, gid), one row per
    * (explanation, timestamp), the order-0 total rows included, with time
    * and attribute values as their labels and null for an attribute
    * aggregated away. `gid` is Spark's `grouping_id()` over (timeCol,
    * attrs…): the first column is the most significant bit, and a set bit
    * means the column is aggregated away in that row.
    *
    * The cube holds 0 where an explanation has no rows at a timestamp, and
    * a GROUP BY has no row there, so only non-zero cells become rows; the
    * relation's measures must be positive for that to drop nothing else.
    */
  def cubeDF(
      df: DataFrame,
      timeCol: String,
      attrs: Seq[String],
      measureCol: String,
      maxOrder: Int = 3,
  ): DataFrame = {
    require(df.where(col(measureCol).isNull || col(measureCol) <= 0).isEmpty, "measures must be positive")
    val cube = ExplanationCube.build(df, timeCol, attrs, measureCol, maxOrder)
    val k = attrs.size
    val series = (Expl.root -> cube.total) +: cube.expls.zip(cube.expls.indices.map(cube.series))
    val rows = for {
      (e, xs) <- series
      gid = attrs.indices.filter(a => e.valueOf(attrs(a)).isEmpty).map(a => 1L << (k - 1 - a)).sum
      t <- xs.indices if xs(t) != 0.0
    } yield Row.fromSeq((cube.times(t) +: attrs.map(e.valueOf(_).orNull)) ++ Seq[Any](xs(t), gid))
    val schema = StructType((timeCol +: attrs).map(StructField(_, StringType)) ++
      Seq(StructField("agg_value", DoubleType), StructField("gid", LongType)))
    df.sparkSession.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
  }

  /** The cube of one Catalyst `GROUPING SETS` aggregate over the sets (T, S),
    * |S| ≤ β̄, pivoted on the driver: the explanation cube as Spark SQL
    * computes it, with a shuffle between a map and a reduce stage.
    */
  def catalystCube(
      df: DataFrame,
      timeCol: String,
      attrs: Seq[String],
      measureCol: String,
      maxOrder: Int = 3,
  ): ExplCube = {
    val k = attrs.size
    val t = col(timeCol)
    val sets = (0 to math.min(maxOrder, k)).flatMap(o => attrs.combinations(o)).map(s => t +: s.map(col))
    val agg = df.groupingSets(sets, t +: attrs.map(col): _*)
      .agg(sum(col(measureCol).cast(DoubleType)).as("agg_value"), grouping_id().as("gid"))
    val rows = agg.collect()

    val timeType = agg.schema.head.dataType
    val toCatalyst = CatalystTypeConverters.createToCatalystConverter(timeType)
    val timeOrder = RowOrdering.createNaturalAscendingOrdering(Seq(timeType))
    val timeValues = rows.map { r =>
      if (r.isNullAt(0))
        throw new IllegalArgumentException(s"time column '$timeCol' has null values")
      r.get(0)
    }.distinct.sortBy(v => InternalRow(toCatalyst(v)))(timeOrder)
    val tIdx = timeValues.zipWithIndex.toMap
    val n = timeValues.length

    val total = new Array[Double](n)
    val acc = scala.collection.mutable.HashMap.empty[Expl, Array[Double]]
    for (r <- rows) {
      val t = tIdx(r.get(0))
      val gid = r.getLong(k + 2)
      val concrete = (0 until k).filter(a => (gid & (1L << (k - 1 - a))) == 0L)
      val v = if (r.isNullAt(k + 1)) 0.0 else r.getDouble(k + 1)
      if (concrete.isEmpty) total(t) = v
      else if (!concrete.exists(a => r.isNullAt(1 + a))) {
        val e = Expl.of(concrete.map(a => attrs(a) -> r.get(1 + a).toString): _*)
        acc.getOrElseUpdate(e, new Array[Double](n))(t) = v
      }
    }
    ExplCube.fromSeries(attrs, timeValues.map(_.toString).toVector, total, acc.toSeq)
  }
}
