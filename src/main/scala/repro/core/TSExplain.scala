package repro.core

import java.util.concurrent.ForkJoinPool
import java.util.stream.IntStream

/** Pipeline configuration (paper defaults: m = 3, β̄ = 3, K ≤ 20, tse).
  * Values no run can use are rejected here, with an
  * `IllegalArgumentException` naming the field.
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
  * is the time spent getting top-m lists from the [[TopLists]] source.
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

    // Top-m lists indexed i·n + j. Before each DP run, the segments it will
    // read are solved in one batch, so no segment is solved twice.
    val table = new Array[TopIds](n * n)
    val requested = new java.util.BitSet(n * n)
    var topNanos = 0L
    def solveTops(segments: Iterator[Segment]): Unit = {
      val batch = Vector.newBuilder[Segment]
      for (s <- segments) {
        val c = s.i * n + s.j
        if (!requested.get(c)) { requested.set(c); batch += s }
      }
      val todo = batch.result()
      if (todo.nonEmpty) {
        val s = System.nanoTime()
        val got = tops(cube, cfg, todo)
        topNanos += System.nanoTime() - s
        var k = 0
        while (k < todo.size) { table(todo(k).i * n + todo(k).j) = got(k); k += 1 }
      }
    }
    val top: Segment => TopIds = s => table(s.i * n + s.j)
    val costs = new SegmentCosts(cube, cfg.metric, top)

    // The cells a DP over `positions` reads. With finite costs and a length
    // cap that every position can reach (all positions under L ≥ 2, or no
    // cap), that is each pair within the cap; with K ≤ 1 only those starting
    // at the first position.
    def dpCells(positions: Vector[Int], kMax: Int, maxSegLen: Int): Vector[Segment] = {
      val p = positions.toArray
      val starts = if (math.min(kMax, p.length - 1) >= 2) p.length - 1 else 1
      val cells = Vector.newBuilder[Segment]
      var b = 0
      while (b < starts) {
        // Positions ascend, so the pairs from p(b) end at the first one past the cap.
        var a = b + 1
        while (a < p.length && p(a) - p(b) <= maxSegLen) { cells += Segment(p(b), p(a)); a += 1 }
        b += 1
      }
      cells.result()
    }
    // Before each DP run: solve the lists `SegmentCosts` reads for it, every
    // unit segment and, except for the all-pair metrics (which compare unit
    // lists only), every cell; then fill those cells' costs.
    val unitsOnly = cfg.metric == VarianceMetric.AllPair || cfg.metric == VarianceMetric.SAllPair
    def prepare(positions: Vector[Int], kMax: Int, maxSegLen: Int = n): Unit = {
      val cells = dpCells(positions, kMax, maxSegLen)
      val units = Iterator.range(0, n - 1).map(x => Segment(x, x + 1))
      solveTops(if (unitsOnly) units else units ++ cells.iterator)
      costs.fill(cells.iterator)
    }

    val t1 = System.nanoTime()
    val all = (0 until n).toVector
    val candidates: Vector[Int] =
      if (cfg.sketch) {
        prepare(all, Sketch.sketchSize(n), Sketch.maxSegLen(n))
        Sketch.select(costs)
      } else all
    val kCap = math.min(cfg.kMax, candidates.size - 1)
    prepare(candidates, kCap)
    val dpRes = KSegmentation.dp(costs.cost, candidates, kCap)
    val curve = dpRes.curve
    val k = cfg.fixedK.map(math.min(_, kCap)).getOrElse(Elbow.select(curve))
    val scheme = dpRes.schemes(k - 1).get
    solveTops(scheme.segments.iterator) // new only for the all-pair metrics
    val perSegment = scheme.segments.map(s => s -> CascadingAnalysts.pretty(cube, top(s)))
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
