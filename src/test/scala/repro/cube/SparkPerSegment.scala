package repro.cube

import org.apache.spark.sql.SparkSession
import repro.core._

/** Module (b) on executors, one list per segment: each task solves its slice
  * of `segments` with its own solver over the broadcast cube, and the lists
  * come back in segment order. A check on distributed CA and O1 that does
  * not go through the [[TopLists]] batches.
  */
object SparkPerSegment {

  def topIds(spark: SparkSession, cube: ExplCube, segments: Seq[Segment], cfg: TSConfig): Array[TopIds] = {
    val sc = spark.sparkContext
    val bc = sc.broadcast(cube)
    try
      sc.parallelize(segments, math.max(1, math.min(64, segments.size / 64))).mapPartitions { slice =>
        val solve = TopLists.solver(bc.value, cfg)
        slice.map(solve.topIds)
      }.collect()
    finally bc.destroy()
  }
}
