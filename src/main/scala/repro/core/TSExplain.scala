package repro.core

import java.util.concurrent.{ConcurrentLinkedQueue, ForkJoinPool}
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
  require(maxOrder >= 0, s"maxOrder must be at least 0, got $maxOrder")
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

/** A per-segment top-m solver, CA or O1, that leaves each answer in its own
  * arrays: after [[solve]], the first [[size]] entries of [[ids]] are the
  * ranked ids, those of [[taus]] their τs, and [[best]] is the Best vector,
  * until the next solve. Instances are not thread-safe.
  */
trait TopSolver {
  def solve(segment: Segment): Unit
  def size: Int
  def ids: Array[Int]
  def taus: Array[Int]
  def best: Array[Double]

  /** The answer of [[solve]] on `segment`, copied out. */
  def topIds(segment: Segment): TopIds = { solve(segment); answer(segment) }

  /** The last answer, copied out as `segment`'s list. */
  def answer(segment: Segment): TopIds =
    TopIds(segment, java.util.Arrays.copyOf(ids, size), java.util.Arrays.copyOf(taus, size), best.clone())
}

/** Where the pipeline gets its top-m lists: the one pluggable point of
  * [[TSExplain.explain]]. A source solves one batch of segments of the
  * precomputed cube and returns their distinct lists and each segment's
  * index into them ([[TopLists.Batch]]).
  */
trait TopLists {
  def apply(cube: ExplCube, cfg: TSConfig, segments: Seq[Segment]): TopLists.Batch
}

object TopLists {

  /** A batch's top lists: `lists` are distinct by (ids, τs), in order of
    * first sight, and segment k's list is `lists(of(k))`. A list is the one
    * solved for the first segment that has it, whose segment and Best it
    * keeps.
    */
  final class Batch(val lists: Array[TopIds], val of: Array[Int])

  /** Per-segment solver: O1 guess-and-verify when `cfg.guessVerify`, else CA. */
  def solver(cube: ExplCube, cfg: TSConfig): TopSolver =
    if (cfg.guessVerify) new GuessVerify(cube, cfg.m, cfg.maxOrder) else new CascadingAnalysts(cube, cfg.m, cfg.maxOrder)

  /** Solves `segments(k)` for k in [from, until) with `solve` and writes to
    * `of(k)` its list's index among the lists returned: the range's distinct
    * lists, in order of first sight. Only a list the range has not met
    * before is copied out of the solver.
    */
  private[repro] def solveRange(solve: TopSolver, segments: IndexedSeq[Segment], from: Int, until: Int,
      of: Array[Int]): Array[TopIds] = {
    val table = new Table
    var k = from
    while (k < until) {
      val seg = segments(k)
      solve.solve(seg)
      val u = table.find(solve.ids, solve.taus, solve.size)
      of(k) = if (u >= 0) u else table.add(solve.answer(seg))
      k += 1
    }
    table.lists
  }

  /** One batch from its blocks: `parts(b)` is block b's first segment and
    * its lists, blocks in segment order, and `of(k)` is segment k's index
    * into its block's lists on entry, into the batch's on return. So the
    * batch's lists are in the order one pass over the segments meets them.
    */
  private[repro] def merge(parts: IndexedSeq[(Int, Array[TopIds])], of: Array[Int]): Batch = {
    val table = new Table
    for (b <- parts.indices) {
      val (from, lists) = parts(b)
      val until = if (b + 1 < parts.size) parts(b + 1)._1 else of.length
      val row = new Array[Int](lists.length)
      for (u <- lists.indices) row(u) = table.idOf(lists(u))
      var k = from
      while (k < until) { of(k) = row(of(k)); k += 1 }
    }
    new Batch(table.lists, of)
  }

  /** The driver's source: the batch is split into blocks solved on the
    * JVM's common ForkJoinPool ([[Blocks]]), each interning its own lists;
    * the blocks borrow solvers from a queue, so a batch builds at most one
    * per thread that runs its blocks (CA and O1 instances are not
    * thread-safe).
    */
  val Driver: TopLists = (cube, cfg, segments) => {
    val segs = segments.toIndexedSeq
    val of = new Array[Int](segs.size)
    val idle = new ConcurrentLinkedQueue[TopSolver]
    merge(Blocks.run(segs.size) { (from, until) =>
      val idler = idle.poll()
      val solve = if (idler != null) idler else solver(cube, cfg)
      try (from, solveRange(solve, segs, from, until, of)) finally idle.offer(solve)
    }, of)
  }

  /** Ids 0, 1, … for top lists in order of first sight, two lists sharing
    * one when they rank the same ids with the same τs; `apply(u)` is the
    * first list given id u. A lookup allocates nothing: it probes with one
    * reusable key.
    */
  private[core] final class Table {
    private val index = new java.util.HashMap[Key, Integer]
    private val probe = new Key(null, null, 0)
    private val reps = scala.collection.mutable.ArrayBuffer.empty[TopIds]

    def size: Int = reps.size
    def apply(u: Int): TopIds = reps(u)
    def lists: Array[TopIds] = reps.toArray

    /** The id of the list that ranks ids(0 until size) with taus(0 until
      * size), or −1.
      */
    def find(ids: Array[Int], taus: Array[Int], size: Int): Int = {
      probe.ids = ids; probe.taus = taus; probe.size = size
      val u = index.get(probe)
      if (u == null) -1 else u
    }

    /** Gives `t`, which [[find]] does not find, the next id. */
    def add(t: TopIds): Int = { index.put(new Key(t.ids, t.taus, t.size), reps.size); reps += t; reps.size - 1 }

    def idOf(t: TopIds): Int = { val u = find(t.ids, t.taus, t.size); if (u >= 0) u else add(t) }
  }

  private final class Key(var ids: Array[Int], var taus: Array[Int], var size: Int) {
    override def hashCode: Int = {
      var h = size
      var r = 0
      while (r < size) { h = 31 * (31 * h + ids(r)) + taus(r); r += 1 }
      h
    }
    override def equals(o: Any): Boolean = o match {
      case k: Key => size == k.size && java.util.Arrays.equals(ids, 0, size, k.ids, 0, size) &&
        java.util.Arrays.equals(taus, 0, size, k.taus, 0, size)
      case _ => false
    }
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
    * [0, size) and returns what each block's call returned, in block order.
    * Several blocks run on the common pool and the calling thread helps; a
    * range too small for two blocks runs on the calling thread alone. An
    * exception thrown in a block reaches the caller with its type kept.
    */
  def run[A](size: Int)(body: (Int, Int) => A): IndexedSeq[A] = {
    val blocks = math.min(size / MinSize, 4 * (ForkJoinPool.getCommonPoolParallelism + 1))
    if (blocks >= 2) {
      val out = new Array[Any](blocks)
      IntStream.range(0, blocks).parallel().forEach { b =>
        out(b) = body((b.toLong * size / blocks).toInt, ((b + 1).toLong * size / blocks).toInt)
      }
      ArraySeq.unsafeWrapArray(out).asInstanceOf[IndexedSeq[A]]
    } else if (size > 0) Vector(body(0, size))
    else Vector.empty
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
    def solve(segments: IndexedSeq[Segment]): TopLists.Batch =
      if (segments.isEmpty) new TopLists.Batch(Array.empty, Array.empty) else timed(tops(cube, cfg, segments))

    val t1 = System.nanoTime()
    val all = (0 until n).toVector
    // The first DP run: with O2, sketch phase I over the band.
    val first = if (cfg.sketch) new Cells(all, Sketch.sketchSize(n), Sketch.maxSegLen(n)) else new Cells(all, cfg.kMax, n)
    val costs = new SegmentCosts(cube, cfg.metric, solve(ArraySeq.unsafeWrapArray(Array.tabulate(n - 1)(x => Segment(x, x + 1)))))

    // The list ids of `cells`: a unit's, or the first run's (`firstIds`,
    // once it has them), or else that of a list solved in one batch, whose
    // distinct lists alone are interned.
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
      val todoSize = size
      val got = solve(new IndexedSeq[Segment] {
        def length: Int = todoSize
        def apply(t: Int): Segment = Segment(cells.start(todo(t)), cells.end(todo(t)))
      })
      val row = got.lists.map(costs.intern)
      for (t <- 0 until size) ids(todo(t)) = row(got.of(t))
      ids
    }

    val firstIds = fill(first, null)
    val firstCosts = costs.values(first, firstIds)
    val candidates = if (cfg.sketch) Sketch.cuts(KSegmentation.dp(first, firstCosts)) else all
    val cells = if (cfg.sketch) new Cells(candidates, cfg.kMax, n) else first
    val dpRes = KSegmentation.dp(cells, if (cfg.sketch) costs.values(cells, fill(cells, firstIds), first, firstCosts) else firstCosts)
    val curve = dpRes.curve
    val k = cfg.fixedK.map(math.min(_, cells.kCap)).getOrElse(Elbow.select(curve))
    val scheme = dpRes.schemes(k - 1).get
    // An id stands for every segment with its ranking, but γ and Best are
    // the solved segment's: the ≤ kMax chosen ones are solved again here.
    val perSegment = timed {
      val readBack = TopLists.solver(cube, cfg)
      scheme.segments.map(s => s -> CascadingAnalysts.pretty(cube, readBack.topIds(s)))
    }
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
