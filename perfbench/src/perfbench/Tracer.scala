package perfbench

import java.lang.management.ManagementFactory

/** The pipeline layers the traced run times, in the order
  * `TSExplain.explain` reaches them (`sparkCube` only on relation input).
  */
object Layer {
  val SparkCube = 0
  val Precompute = 1
  val TopTable = 2
  val CostMatrix = 3
  val Sketch = 4
  val Dp = 5
  val Elbow = 6
  val Render = 7
  val names: Vector[String] =
    Vector("sparkCube", "precompute", "topTable", "costMatrix", "sketch", "dp", "elbow", "render")
}

/** Self-time and self-allocation per layer for one traced query.
  *
  * Spans nest on the query's thread; a span's self figures exclude the spans
  * opened inside it, so a `topTable` call made from inside a `costMatrix`
  * lookup counts toward `topTable` only. Each span is folded into its
  * layer's totals when it closes, so a query with a million cost lookups
  * keeps a few counters rather than a million spans. Allocation is the
  * current thread's heap allocation, so it covers driver-side layers only.
  */
final class Tracer {
  private val selfNs = new Array[Long](Layer.names.size)
  private val selfBytes = new Array[Long](Layer.names.size)
  /** Work counters the traced pipeline reports, by per-layer metric name. */
  val counters = scala.collection.mutable.LinkedHashMap.empty[String, Double]

  private val maxDepth = 16
  private val layer = new Array[Int](maxDepth)
  private val t0 = new Array[Long](maxDepth)
  private val b0 = new Array[Long](maxDepth)
  private val childNs = new Array[Long](maxDepth)
  private val childBytes = new Array[Long](maxDepth)
  private var depth = 0

  private def enter(l: Int, alloc: Boolean): Unit = {
    layer(depth) = l
    childNs(depth) = 0L
    childBytes(depth) = 0L
    b0(depth) = if (alloc) Tracer.threads.getCurrentThreadAllocatedBytes else -1L
    t0(depth) = System.nanoTime()
    depth += 1
  }

  private def exit(): Unit = {
    val t1 = System.nanoTime()
    depth -= 1
    val ns = t1 - t0(depth)
    val bytes = if (b0(depth) < 0) 0L else Tracer.threads.getCurrentThreadAllocatedBytes - b0(depth)
    val l = layer(depth)
    selfNs(l) += ns - childNs(depth)
    selfBytes(l) += bytes - childBytes(depth)
    if (depth > 0) {
      childNs(depth - 1) += ns
      childBytes(depth - 1) += bytes
    }
  }

  /** Runs `body` as a span of layer `l`. With `alloc = false` the span reads
    * no allocation counter, which halves its cost; what it allocates then
    * counts toward the enclosing span.
    */
  def span[A](l: Int, alloc: Boolean = true)(body: => A): A = {
    enter(l, alloc)
    try body
    finally exit()
  }

  def ms(l: Int): Double = selfNs(l) / 1e6
  def mb(l: Int): Double = selfBytes(l) / 1e6

  /** Sum of every layer's self time: the query time the spans cover. */
  def coveredMs: Double = selfNs.sum / 1e6
}

object Tracer {
  private[perfbench] val threads: com.sun.management.ThreadMXBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
}
