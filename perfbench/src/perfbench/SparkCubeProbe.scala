package perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.util.QueryExecutionListener

/** Counts the Spark work of the cube build: tasks and shuffle bytes from
  * task-end events, and rows from the executed plans — rows read from the
  * cached relation, and rows each query returns (its topmost row count).
  */
final class SparkCubeProbe(spark: SparkSession)
    extends SparkListener with QueryExecutionListener with AdaptiveSparkPlanHelper {

  @volatile private var tasks = 0L
  @volatile private var shuffleBytes = 0L
  @volatile private var rowsIn = 0L
  @volatile private var rowsOut = 0L

  spark.sparkContext.addSparkListener(this)
  spark.listenerManager.register(this)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
    val plan = qe.executedPlan
    rowsIn += collect(plan) { case s: InMemoryTableScanExec => s.metrics("numOutputRows").value }.sum
    rowsOut += find(plan)(_.metrics.contains("numOutputRows"))
      .fold(0L)(_.metrics("numOutputRows").value)
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  /** Counters of everything `body` runs on Spark, as per-layer metrics. */
  def measure[A](body: => A): (A, Seq[(String, Double)]) = {
    ListenerBusDrain(spark.sparkContext)
    tasks = 0L; shuffleBytes = 0L; rowsIn = 0L; rowsOut = 0L
    val a = body
    ListenerBusDrain(spark.sparkContext)
    (a, Seq(
      "sparkCube.rows_in" -> rowsIn.toDouble,
      "sparkCube.rows_out" -> rowsOut.toDouble,
      "sparkCube.shuffle_mb" -> shuffleBytes / 1e6,
      "sparkCube.tasks" -> tasks.toDouble,
    ))
  }
}
