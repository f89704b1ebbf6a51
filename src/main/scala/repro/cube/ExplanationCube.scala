package repro.cube

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.RowOrdering
import org.apache.spark.sql.functions._
import repro.core.{Expl, ExplCube}

/** Spark-side precomputation (Section 5.2, module a).
  *
  * One Catalyst `GROUPING SETS` aggregation over the relation computes the
  * aggregated time series of *every* candidate explanation at once: one
  * grouping set (T, S) per subset S of the explain-by attributes with
  * |S| ≤ β̄, so T is always kept and no set is computed only to be dropped.
  * `grouping_id()` identifies which explain-by attributes are concrete in
  * each output row, i.e. which conjunction (explanation) the row belongs to.
  * The result is collected into the in-memory [[ExplCube]] that the CA /
  * K-Segmentation stages consume with O(1) γ lookups.
  */
object ExplanationCube {

  /** The raw cube DataFrame: columns (timeCol, attrs…, agg_value, gid), one
    * row per (explanation, timestamp) — including the order-0 "total" rows
    * where every attribute is aggregated. `gid` is Spark's `grouping_id()`
    * over (timeCol, attrs…): the first column is the most significant bit,
    * and a set bit means the column is aggregated away in that row; the
    * time bit is always clear.
    *
    * The input is coalesced to one partition per core (`defaultParallelism`)
    * before the aggregate. A map task's cost is mostly fixed: shipping the
    * task and writing one shuffle file per reduce partition. Catalyst
    * aggregates every grouping set in the same pass whatever the task count,
    * and the result is small (one row per explanation and timestamp), so
    * more map tasks than cores only add that fixed cost. `coalesce` is
    * narrow and never raises the partition count.
    */
  def cubeDF(
      df: DataFrame,
      timeCol: String,
      attrs: Seq[String],
      measureCol: String,
      maxOrder: Int = 3,
  ): DataFrame = {
    require(attrs.nonEmpty && attrs.size <= 30, "1..30 explain-by attributes")
    require(maxOrder >= 0, s"maxOrder must be non-negative, got $maxOrder")
    val t = col(timeCol)
    val sets = (0 to math.min(maxOrder, attrs.size)).flatMap(o => attrs.combinations(o))
      .map(s => t +: s.map(col))
    df.coalesce(df.sparkSession.sparkContext.defaultParallelism)
      .groupingSets(sets, t +: attrs.map(col): _*)
      .agg(sum(col(measureCol)).as("agg_value"), grouping_id().as("gid"))
  }

  /** Build the in-memory [[ExplCube]] from one aggregate over `df`: collect
    * [[cubeDF]], take the time axis from its rows in Spark's ordering of the
    * time column, and pivot the rows into per-explanation series aligned on
    * that axis. Timestamps absent from an explanation's slice contribute 0
    * (empty SUM).
    *
    * A null explain-by value counts as a missing attribute, as in
    * [[ExplCube.fromRecords]]: the row counts toward the total and toward
    * the conjunctions over its non-null attributes, and no `attr=null`
    * explanation is made. A null time value is an `IllegalArgumentException`.
    */
  def build(
      df: DataFrame,
      timeCol: String,
      attrs: Seq[String],
      measureCol: String,
      maxOrder: Int = 3,
  ): ExplCube = {
    val k = attrs.size
    val agg = cubeDF(df, timeCol, attrs, measureCol, maxOrder)
      .select(col(timeCol) +: attrs.map(col) :+ col("agg_value").cast("double") :+ col("gid"): _*)
    val rows = agg.collect()

    // The time axis: T's distinct values in the order Spark's own sort on
    // T's type would give, computed on the driver so the relation is read once.
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
