package repro.core

import java.util.concurrent.ForkJoinPool
import java.util.stream.IntStream
import scala.collection.immutable.ArraySeq
import repro.core.KSegmentation.Cells

/** Pipeline configuration (paper defaults: m = 3, β̄ = 3, K ≤ 20, tse).
  * Values no run can use are rejected here, with an
  * `IllegalArgumentException` naming the field.
  *
  * `kMax` bounds the K-variance curve and `fixedK` picks K instead of the
  * elbow. Both are capped at the candidate cut positions − 1: n − 1, or
  * |S| − 1 with sketching (O2). A larger value gives the capped result.
  *
  * `filterRatio` keeps E when |s_E(t)| ≥ ratio·|total(t)| at some t
  * ([[ExplCube.filtered]]): where a signed total nears zero, nearly every
  * explanation passes, and where it is zero, every one.
  */
final case class TSConfig(
    m: Int = 3,
    maxOrder: Int = 3,
    metric: VarianceMetric = VarianceMetric.Tse,
    kMax: Int = 20,
    fixedK: Option[Int] = None,
    filterRatio: Option[Double] = None,
    guessVerify: Boolean = false,
    sketch: Boolean = false,
    smoothWindow: Option[Int] = None,
) {
  require(m >= 1, s"m must be at least 1, got $m")
  require(kMax >= 1, s"kMax must be at least 1, got $kMax")
  require(fixedK.forall(_ >= 1), s"fixedK must be at least 1, got ${fixedK.get}")
  require(smoothWindow.forall(_ >= 1), s"smoothWindow must be at least 1, got ${smoothWindow.get}")
  require(filterRatio.forall(r => java.lang.Double.isFinite(r) && r >= 0),
    s"filterRatio must be finite and non-negative, got ${filterRatio.get}")

  def withAllOpts: TSConfig = copy(guessVerify = true, sketch = true)
}

/** Wall-clock breakdown matching Figure 15's three pipeline modules; `caMs`
  * is the time spent solving top-m lists, the chosen segments' read-back too.
  */
final case class Timings(precomputeMs: Double, caMs: Double, ksegMs: Double) {
  def totalMs: Double = precomputeMs + caMs + ksegMs
}

/** Where the pipeline gets its top-m lists: the one pluggable point of
  * [[TSExplain.explain]]. A source solves one batch of segments of the
  * precomputed cube and returns their lists in segment order.
  */
trait TopLists {
  def apply(cube: ExplCube, cfg: TSConfig, segments: Seq[Segment]): Array[TopIds]
}

object TopLists {

  /** Per-segment solver: O1 guess-and-verify when `cfg.guessVerify`, else CA. */
  def solver(cube: ExplCube, cfg: TSConfig): Segment => TopIds =
    if (cfg.guessVerify) new GuessVerify(cube, cfg.m, cfg.maxOrder).topIds _
    else new CascadingAnalysts(cube, cfg.m, cfg.maxOrder).topIds _

  /** The driver's source: the batch is split into blocks solved on the
    * JVM's common ForkJoinPool ([[Blocks]]), one [[solver]] per block since
    * CA and O1 instances are not thread-safe.
    */
  val Driver: TopLists = (cube, cfg, segments) => {
    val segs = segments.toIndexedSeq
    val out = new Array[TopIds](segs.size)
    Blocks.run(segs.size) { (from, until) =>
      val solve = solver(cube, cfg)
      var k = from
      while (k < until) { out(k) = solve(segs(k)); k += 1 }
    }
    out
  }
}

/** Block-parallel loops for the driver's two O(n²) stages, top lists and
  * costs. They run on the JVM's common ForkJoinPool, whose size is fixed, so
  * explain calls nested inside Spark tasks share it rather than add threads.
  */
private[core] object Blocks {

  /** Fewest items per block. */
  val MinSize = 64

  /** Calls `body(from, until)` on consecutive blocks that together cover
    * [0, size). Several blocks run on the common pool and the calling thread
    * helps; a range too small for two blocks runs on the calling thread
    * alone. An exception thrown in a block reaches the caller with its type
    * kept.
    */
  def run(size: Int)(body: (Int, Int) => Unit): Unit = {
    val blocks = math.min(size / MinSize, 4 * (ForkJoinPool.getCommonPoolParallelism + 1))
    if (blocks >= 2)
      IntStream.range(0, blocks).parallel().forEach { b =>
        body((b.toLong * size / blocks).toInt, ((b + 1).toLong * size / blocks).toInt)
      }
    else if (size > 0) body(0, size)
  }
}

/** The TSExplain pipeline (Figure 7): precompute (filter/smooth the cube) →
  * top-m lists per segment → K-Segmentation DP → elbow K → evolving
  * explanations. O1 (guess-and-verify) is chosen by the [[TopLists]] solver;
  * O2 (sketching) restricts the DP's candidate cut positions.
  */
object TSExplain {

  final case class Result(
      explanation: Explanation,
      timings: Timings,
      cube: ExplCube,
      candidates: Vector[Int],
  )

  def explain(cube0: ExplCube, cfg: TSConfig, tops: TopLists = TopLists.Driver): Result = {
    require(cube0.n >= 2, s"explain needs a series of at least 2 points, got n = ${cube0.n}")
    val t0 = System.nanoTime()
    val smoothed = cfg.smoothWindow.fold(cube0)(cube0.smoothed)
    val cube = cfg.filterRatio.fold(smoothed)(smoothed.filtered)
    val precomputeMs = (System.nanoTime() - t0) / 1e6
    val n = cube.n

    // Each DP run's cells come with their list ids, in cell order: rows of
    // the costs' table of distinct lists (−1 where the metric reads none).
    // Every unit's list is solved first, in its own batch, after the first
    // run's cells are listed; `fill` then solves each other segment once.
    val allPair = cfg.metric == VarianceMetric.AllPair || cfg.metric == VarianceMetric.SAllPair
    var topNanos = 0L
    def timed[A](body: => A): A = { val s = System.nanoTime(); try body finally topNanos += System.nanoTime() - s }
    def solve(segments: Array[Segment]): Array[TopIds] =
      if (segments.isEmpty) Array.empty else timed(tops(cube, cfg, ArraySeq.unsafeWrapArray(segments)))

    val t1 = System.nanoTime()
    val all = (0 until n).toVector
    // The first DP run: with O2, sketch phase I over the band.
    val first = if (cfg.sketch) new Cells(all, Sketch.sketchSize(n), Sketch.maxSegLen(n)) else new Cells(all, cfg.kMax, n)
    val unitLists = solve(Array.tabulate(n - 1)(x => Segment(x, x + 1)))
    // The costs read the unit lists through topFn and intern them first.
    val costs = new SegmentCosts(cube, cfg.metric, s => unitLists(s.i))

    // The list ids of `cells`: a unit's, or the first run's (`firstIds`,
    // once it has them), or else that of a list solved in one batch.
    def fill(cells: Cells, firstIds: Array[Int]): Array[Int] = {
      val ids = new Array[Int](cells.size)
      val todo = new Array[Int](cells.size)
      var size = 0
      var k = 0
      while (k < cells.size) {
        val i = cells.start(k)
        val e = if (firstIds == null) -1 else first.indexOf(i, cells.end(k))
        ids(k) = if (allPair) -1 else if (cells.end(k) - i == 1) costs.unitId(i) else if (e >= 0) firstIds(e) else { todo(size) = k; size += 1; -1 }
        k += 1
      }
      val got = solve(Array.tabulate(size)(t => Segment(cells.start(todo(t)), cells.end(todo(t)))))
      for (t <- 0 until size) ids(todo(t)) = costs.intern(got(t))
      ids
    }

    val firstIds = fill(first, null)
    val candidates = if (cfg.sketch) Sketch.cuts(KSegmentation.dp(first, costs.values(first, firstIds))) else all
    val cells = if (cfg.sketch) new Cells(candidates, cfg.kMax, n) else first
    val ids = if (cfg.sketch) fill(cells, firstIds) else firstIds
    val dpRes = KSegmentation.dp(cells, costs.values(cells, ids))
    val curve = dpRes.curve
    val k = cfg.fixedK.map(math.min(_, cells.kCap)).getOrElse(Elbow.select(curve))
    val scheme = dpRes.schemes(k - 1).get
    // An id stands for every segment with its ranking, but γ and Best are
    // the solved segment's: the ≤ kMax chosen ones are solved again here.
    val perSegment = timed(scheme.segments.map(TopLists.solver(cube, cfg)).map(t => t.seg -> CascadingAnalysts.pretty(cube, t)))
    val stageNanos = System.nanoTime() - t1
    val caMs = topNanos / 1e6
    val ksegMs = math.max(0.0, stageNanos / 1e6 - caMs)

    Result(
      Explanation(scheme, curve(k - 1), perSegment, curve.zipWithIndex.map { case (v, i) => (i + 1, v) }),
      Timings(precomputeMs, caMs, ksegMs),
      cube,
      candidates,
    )
  }
}
