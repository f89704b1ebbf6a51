package repro.core

/** Pipeline configuration (paper defaults: m = 3, β̄ = 3, K ≤ 20, tse). */
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

  /** One solver on the driver, run over the batch in order. */
  val Driver: TopLists = (cube, cfg, segments) => segments.iterator.map(solver(cube, cfg)).toArray
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
    val t0 = System.nanoTime()
    val smoothed = cfg.smoothWindow.fold(cube0)(cube0.smoothed)
    val cube = cfg.filterRatio.fold(smoothed)(smoothed.filtered)
    val precomputeMs = (System.nanoTime() - t0) / 1e6
    val n = cube.n

    // Top-m lists indexed i·n + j. Before each DP run, the segments it will
    // read are solved in one batch, so no segment is solved twice.
    val table = new Array[TopIds](n * n)
    val requested = new java.util.BitSet(n * n)
    var fillNanos = 0L
    def fill(segments: Iterator[Segment]): Unit = {
      val batch = Vector.newBuilder[Segment]
      for (s <- segments) {
        val c = s.i * n + s.j
        if (!requested.get(c)) { requested.set(c); batch += s }
      }
      val todo = batch.result()
      if (todo.nonEmpty) {
        val s = System.nanoTime()
        val got = tops(cube, cfg, todo)
        fillNanos += System.nanoTime() - s
        var k = 0
        while (k < todo.size) { table(todo(k).i * n + todo(k).j) = got(k); k += 1 }
      }
    }
    val top: Segment => TopIds = s => table(s.i * n + s.j)
    val costs = new SegmentCosts(cube, cfg.metric, top)

    // The lists `SegmentCosts` reads for a DP over `positions`: every unit
    // segment and, except for the all-pair metrics (which compare unit lists
    // only), every segment the DP costs. With finite costs and a length cap
    // that every position can reach (all positions under L ≥ 2, or no cap),
    // that is each pair within the cap; with K ≤ 1 only those starting at
    // the first position.
    val unitsOnly = cfg.metric == VarianceMetric.AllPair || cfg.metric == VarianceMetric.SAllPair
    def dpReads(positions: Vector[Int], kMax: Int, maxSegLen: Int = n): Iterator[Segment] = {
      val units = Iterator.range(0, n - 1).map(x => Segment(x, x + 1))
      if (unitsOnly) units
      else {
        val starts = if (math.min(kMax, positions.size - 1) >= 2) positions.size - 1 else 1
        units ++ (for {
          b <- Iterator.range(0, starts)
          a <- Iterator.range(b + 1, positions.size)
          if positions(a) - positions(b) <= maxSegLen
        } yield Segment(positions(b), positions(a)))
      }
    }

    val t1 = System.nanoTime()
    val all = (0 until n).toVector
    val candidates: Vector[Int] =
      if (cfg.sketch) {
        fill(dpReads(all, Sketch.sketchSize(n), Sketch.maxSegLen(n)))
        Sketch.select(costs)
      } else all
    val kCap = math.min(cfg.kMax, candidates.size - 1)
    fill(dpReads(candidates, kCap))
    val dpRes = KSegmentation.dp(costs.cost, candidates, kCap)
    val curve = dpRes.curve
    val k = cfg.fixedK.map(k0 => math.max(1, math.min(k0, kCap))).getOrElse(Elbow.select(curve))
    val scheme = dpRes.schemes(k - 1).get
    fill(scheme.segments.iterator) // new only for the all-pair metrics
    val perSegment = scheme.segments.map(s => s -> CascadingAnalysts.pretty(cube, top(s)))
    val stageNanos = System.nanoTime() - t1
    val caMs = fillNanos / 1e6
    val ksegMs = math.max(0.0, stageNanos / 1e6 - caMs)

    Result(
      Explanation(scheme, curve(k - 1), perSegment, curve.zipWithIndex.map { case (v, i) => (i + 1, v) }),
      Timings(precomputeMs, caMs, ksegMs),
      cube,
      candidates,
    )
  }
}
