package repro.core

import java.util.concurrent.{CancellationException, CountDownLatch, ForkJoinPool, ForkJoinTask}
import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray, AtomicReference}

/** Weighted within-segment variance |P|·var(P) for arbitrary segments
  * (Section 4.1.4, Eq. 7 and the alternative metrics of Section 4.2.2).
  *
  * Objects are the unit segments [p_x, p_x+1]; the centroid of a partition
  * [p_i, p_j] is the partition itself. Top-explanation lists are supplied by
  * `topFn` (full CA, guess-and-verify CA, …), which should cache them, or,
  * in [[TSExplain.explain]], the unit lists come as one [[TopLists.Batch]]
  * and every other list through [[intern]]. [[values]] computes the costs
  * of a DP run's cells, given their list ids, and [[cost]] one cell at a
  * time; neither memoizes. A list id
  * is a row of one table of distinct lists ([[intern]]), where lists that
  * rank the same ids with the same τs (all the kernel reads of a list
  * besides its segment) share a row. This class also keeps each unit's
  * self-DCG and the pairwise object distances the all-pair metrics share.
  *
  * The Eq. 6 metrics (all but the all-pair ones) sum, over the objects x of
  * a cell, a term of how well x's list explains the centroid and a term of
  * how well the centroid's list explains x. The first depends on x only
  * through x's list, so a cell computes it once per distinct unit list; the
  * second depends on the centroid only through its list, so cells with
  * equal centroid lists share it per object, and it reads the unit changes
  * from one flat ε×(n−1) array. Both are computed with the operations, in
  * the order, of [[Ndcg.ndcgGiven]], so every cost keeps its bits whichever
  * cells share the work.
  */
final class SegmentCosts private (
    val cube: ExplCube,
    val metric: VarianceMetric,
    topFn: Segment => TopIds,
    unitLists: TopLists.Batch,
) {

  /** Costs that read every list through `topFn`, the unit lists too. */
  def this(cube: ExplCube, metric: VarianceMetric, topFn: Segment => TopIds) = this(cube, metric, topFn, null)

  /** Costs whose unit lists are the batch `units`, unit x's being
    * `units.lists(units.of(x))`; [[cost]] reads no other list.
    */
  private[core] def this(cube: ExplCube, metric: VarianceMetric, units: TopLists.Batch) =
    this(cube, metric, s => units.lists(units.of(s.i)), units)

  private val ndcg = new Ndcg(cube)
  private val nUnits = cube.n - 1
  private val allPair = metric == VarianceMetric.AllPair || metric == VarianceMetric.SAllPair
  // The two directions of Eq. 6: how well an object's list explains the
  // centroid (all Eq. 6 metrics but dist2) and how well the centroid's list
  // explains an object (all Eq. 6 metrics but dist1).
  private val toCentroid = metric != VarianceMetric.Dist2 && metric != VarianceMetric.SDist2
  private val toObject = !allPair && metric != VarianceMetric.Dist1 && metric != VarianceMetric.SDist1

  // The unit segments (objects), built once: a fresh Segment per object
  // read in a cost loop allocates unless the JIT elides it.
  private val units: Array[Segment] = Array.tabulate(nUnits)(x => Segment(x, x + 1))

  private val lists = new TopLists.Table // the distinct lists met so far

  // Pairwise object-object distances, needed only by the allpair metrics.
  private lazy val pairDist: Array[Array[Double]] = {
    val t = unitTables
    val idcg = t.idcg
    val d = Array.fill(nUnits)(new Array[Double](nUnits))
    var x = 0
    while (x < nUnits) {
      var y = x + 1
      while (y < nUnits) {
        val v = 1.0 - (ndcg.ndcgGiven(idcg(x), units(x), t.top(y)) + ndcg.ndcgGiven(idcg(y), units(y), t.top(x))) / 2.0
        d(x)(y) = v; d(y)(x) = v
        y += 1
      }
      x += 1
    }
    d
  }

  private def sq(v: Double): Double = if (metric.squared) v * v else v

  private def allPairVar(i: Int, j: Int): Double = {
    val len = j - i
    if (len <= 1) 0.0
    else {
      var s = 0.0
      var x = i
      while (x < j) {
        var y = x + 1
        while (y < j) { s += sq(pairDist(x)(y)); y += 1 }
        x += 1
      }
      // AVG over the len*(len-1)/2 object pairs, weighted by |P| = len.
      len * (s / (len * (len - 1) / 2.0))
    }
  }

  /** The unit-level tables. */
  private final class UnitTables {
    // The unit lists as one batch: the source's, or else each unit's read
    // through topFn and merged as one block whose k-th list is unit k's.
    // They take the first rows of `lists`.
    private val batch =
      if (unitLists != null) unitLists else TopLists.merge(Vector((0, units.map(topFn))), Array.range(0, nUnits))
    private val row = batch.lists.map(lists.idOf)
    val unitIds: Int = lists.size
    // Unit x's list id.
    val listOf = new Array[Int](if (allPair) 0 else nUnits)
    // Each unit's self-DCG, the IDCG of Eq. 5 with the unit as target.
    val idcg = new Array[Double](nUnits)
    // The unit change s_e(x + 1) − s_e(x) at e·(n − 1) + x, which the
    // centroid→object term of the Eq. 6 kernel reads.
    val delta = new Array[Double](if (toObject) cube.epsilon * nUnits else 0)
    Blocks.run(nUnits) { (from, until) =>
      var x = from
      while (x < until) {
        val u = batch.of(x)
        idcg(x) = ndcg.dcgSelf(units(x), batch.lists(u))
        if (!allPair) listOf(x) = row(u)
        x += 1
      }
      if (delta.nonEmpty) for (e <- 0 until cube.epsilon) {
        val s = cube.series(e)
        var y = from
        while (y < until) { delta(e * nUnits + y) = s(y + 1) - s(y); y += 1 }
      }
    }
    // The batch's unit lists, for the all-pair metrics' distances.
    def top(x: Int): TopIds = batch.lists(batch.of(x))
  }

  // Built on first use, once the unit lists can be read; `intern` and
  // `values` build it on the calling thread, before other lists or blocks.
  private lazy val unitTables = new UnitTables

  /** `top`'s row in the table of distinct lists, the unit lists first;
    * call it from one thread, not during [[values]].
    */
  def intern(top: TopIds): Int = { if (!allPair) unitTables; lists.idOf(top) }

  /** Unit [x, x + 1]'s [[intern]] id (not for the all-pair metrics). */
  def unitId(x: Int): Int = unitTables.listOf(x)

  /** One thread's working arrays for the Eq. 6 kernel. */
  private final class Scratch(val t: UnitTables) {
    // The object→centroid term of the current cell per unit list, valid
    // where seen(u) == cell.
    val toCentroidTerm = new Array[Double](t.unitIds)
    val seen = new Array[Int](t.unitIds)
    var cell = 0
    // The centroid→object term of the current centroid list per object.
    val toObjectTerm = new Array[Double](if (toObject) nUnits else 0)
  }

  // Computed on first use by `cost`, which runs on the caller's thread.
  private lazy val callerScratch = new Scratch(unitTables)

  /** Writes NDCG(unit x, E*(centroid)), the centroid→object term of Eq. 6,
    * into sc.toObjectTerm(x) for x ∈ [from, until): `Ndcg.ndcgGiven(idcg(x),
    * units(x), ctop)`, summed over ctop's ranks in order as `Ndcg.dcgCross`
    * sums them.
    */
  private def toObjectTerms(ctop: TopIds, from: Int, until: Int, sc: Scratch): Unit = {
    val out = sc.toObjectTerm
    val delta = sc.t.delta
    java.util.Arrays.fill(out, from, until, 0.0)
    var r = 0
    while (r < ctop.size) {
      val base = ctop.ids(r) * nUnits
      val tau = ctop.taus(r)
      val w = ndcg.invLog(r)
      var x = from
      while (x < until) {
        val d = delta(base + x)
        if (math.signum(d).toInt == tau) out(x) += math.abs(d) * w
        x += 1
      }
      r += 1
    }
    val idcg = sc.t.idcg
    var x = from
    while (x < until) {
      out(x) = if (idcg(x) <= 0.0) 1.0 else math.min(1.0, out(x) / idcg(x))
      x += 1
    }
  }

  /** |P|·var(P) of an Eq. 6 metric for [i, j] with centroid list `ctop`;
    * sc.toObjectTerm must hold ctop's terms on [i, j) when the metric reads
    * them.
    */
  private def eq6Var(i: Int, j: Int, ctop: TopIds, sc: Scratch): Double = {
    val cseg = Segment(i, j)
    val cIdcg = if (toCentroid) ndcg.dcgSelf(cseg, ctop) else 0.0
    val of = sc.t.listOf
    val toC = sc.toCentroidTerm
    val toO = sc.toObjectTerm
    sc.cell += 1
    val cell = sc.cell
    var s = 0.0
    var x = i
    while (x < j) {
      var a = 0.0
      if (toCentroid) {
        val u = of(x)
        if (sc.seen(u) != cell) { toC(u) = ndcg.ndcgGiven(cIdcg, cseg, lists(u)); sc.seen(u) = cell }
        a = toC(u)
      }
      val d =
        if (!toObject) 1.0 - a
        else if (!toCentroid) 1.0 - toO(x)
        else 1.0 - (a + toO(x)) / 2.0
      s += sq(d)
      x += 1
    }
    s
  }

  /** |P|·var(P) for the partition spanning indices [i, j] (Eq. 7 weighted by
    * the object count, which is what the DP objective of Problem 1 sums):
    * the kernel of [[values]], with its operations in its order. Not
    * memoized; call it from one thread at a time.
    */
  def cost(i: Int, j: Int): Double =
    if (allPair) allPairVar(i, j)
    else {
      val ctop = topFn(Segment(i, j))
      val sc = callerScratch
      if (toObject) toObjectTerms(ctop, i, j, sc)
      eq6Var(i, j, ctop, sc)
    }

  /** Writes the costs of the cells `order(from until until)` into `out`.
    * `order` lists the cells group by group, a group being the cells with
    * one centroid list id, in cell order, so by ascending start. A group
    * computes its centroid→object terms once for each object some cell of it
    * covers.
    */
  private def valuesBlock(cells: KSegmentation.Cells, ids: Array[Int], order: Array[Int], from: Int, until: Int,
      tables: UnitTables, out: Array[Double]): Unit = {
    val sc = new Scratch(tables)
    var run = -1 // the group of the current run
    var covered = 0 // its objects from its last cell's start until covered hold their terms
    var r = from
    while (r < until) {
      val k = order(r)
      val i = cells.start(k)
      val j = cells.end(k)
      val ctop = if (allPair) null else lists(ids(k))
      if (toObject) {
        if (ids(k) != run) { run = ids(k); covered = 0 }
        if (j > covered) { toObjectTerms(ctop, math.max(i, covered), j, sc); covered = j }
      }
      out(k) = if (allPair) allPairVar(i, j) else eq6Var(i, j, ctop, sc)
      r += 1
    }
  }

  /** The cost of each of `cells`, in cell order, with `ids(k)` the [[intern]]
    * id of cell k's top list (not read by the all-pair metrics); a cell of
    * `prior` keeps its cost there, `priorCosts`, the bits it would get here.
    * The others are computed in parallel blocks on the common ForkJoinPool;
    * `topFn`, which gives the unit lists here, must be safe to call from
    * several threads, as a lookup in an already filled table is.
    */
  def values(cells: KSegmentation.Cells, ids: Array[Int], prior: KSegmentation.Cells = null,
      priorCosts: Array[Double] = null): Array[Double] = {
    val out = new Array[Double](cells.size)
    val tables = unitTables
    def known(k: Int): Int = if (prior == null) -1 else prior.indexOf(cells.start(k), cells.end(k))
    // The cells to compute by list id (the all-pair metrics' are all −1), a
    // stable counting sort; the blocks take slices.
    val next = new Array[Int](lists.size + 2)
    for (k <- 0 until cells.size) { val e = known(k); if (e >= 0) out(k) = priorCosts(e) else next(ids(k) + 2) += 1 }
    for (g <- 1 until next.length) next(g) += next(g - 1)
    val order = new Array[Int](next.last)
    for (k <- 0 until cells.size) if (known(k) < 0) { order(next(ids(k) + 1)) = k; next(ids(k) + 1) += 1 }
    Blocks.run(order.length)((from, until) => valuesBlock(cells, ids, order, from, until, tables, out))
    out
  }

  /** Objective Σ |P_k|·var(P_k) of a full segmentation scheme (Problem 1). */
  def objective(scheme: SegScheme): Double =
    scheme.segments.iterator.map(s => cost(s.i, s.j)).sum
}

/** The K-Segmentation dynamic program (Section 5.1, Eq. 11), generalized with
  * the two restrictions used by sketching: an optional maximum segment length
  * (phase I) and an explicit candidate cut-position list (phase II).
  */
object KSegmentation {

  /** `curve(k-1)` = D(n, k) and `schemes(k-1)` = the optimal k-segmentation,
    * for k = 1..kMax (all collected from one DP run, Section 6). Entries are
    * +∞ / None when no k-segmentation satisfies the max-segment-length
    * constraint (e.g. K = 1 during sketch phase I). [[dp]] backtracks a
    * scheme when it is read.
    */
  final case class DPResult(curve: Vector[Double], schemes: IndexedSeq[Option[SegScheme]])

  /** The cells a DP over the cut positions `positions` (sorted, distinct)
    * reads: each pair (p(b), p(a)), b < a, with p(a) − p(b) ≤ maxSegLen, or,
    * when at most one segment is asked for, only the pairs from p(0). Cell k
    * is the segment [start(k), end(k)]; cells are listed by start, then by
    * end, so the cells from p(b) are contiguous. More cells than one array
    * holds (Int.MaxValue − 8) is an `IllegalArgumentException`, raised
    * before any table sized by the cells is allocated.
    */
  final class Cells(positions: Vector[Int], kMax: Int, private[KSegmentation] val maxSegLen: Int) {
    require(positions.size >= 2 && positions.head >= 0 && positions == positions.sorted &&
      positions.distinct == positions, "bad candidate positions")
    private[KSegmentation] val p = positions.toArray
    /** The most segments a DP over these cells reports. */
    val kCap: Int = math.min(kMax, p.length - 1)
    require(kCap >= 1, "need at least one segment")
    // The cells from p(b) are rowStart(b) until rowStart(b + 1), ending at
    // p(b + 1), p(b + 2), … up to the first end past the cap. That end moves
    // forward with b, so one pointer finds every row's.
    private[KSegmentation] val rowStart = new Array[Int]((if (kCap >= 2) p.length - 1 else 1) + 1)
    locally {
      var total = 0L
      var a = 1
      for (b <- 0 until rowStart.length - 1) {
        a = math.max(a, b + 1)
        while (a < p.length && p(a) - p(b) <= maxSegLen) a += 1
        total += a - b - 1
        rowStart(b + 1) = total.toInt
      }
      require(total <= Int.MaxValue - 8,
        s"${p.length} candidate positions give $total DP cells, more than one array holds")
    }
    def size: Int = rowStart.last
    // The start rank b of each cell.
    private val rowOf = new Array[Int](size)
    for (b <- 0 until rowStart.length - 1) java.util.Arrays.fill(rowOf, rowStart(b), rowStart(b + 1), b)
    // Each position's rank in p, −1 for the others.
    private val rank = new Array[Int](p.last + 1)
    java.util.Arrays.fill(rank, -1)
    for (b <- p.indices) rank(p(b)) = b

    def start(k: Int): Int = p(rowOf(k))
    def end(k: Int): Int = p(k - rowStart(rowOf(k)) + rowOf(k) + 1)

    /** The cell [i, j], or −1 when it is not one. */
    def indexOf(i: Int, j: Int): Int =
      if (i < 0 || i >= j || j >= rank.length || rank(i) < 0 || rank(j) < 0 || rank(i) >= rowStart.length - 1) -1
      else {
        val k = rowStart(rank(i)) + rank(j) - rank(i) - 1
        if (k < rowStart(rank(i) + 1)) k else -1
      }
  }

  /** Runs the DP over `positions` (see [[Cells]]), reading `cost(p(b), p(a))`
    * exactly once for each cell.
    */
  def dp(
      cost: (Int, Int) => Double,
      positions: Vector[Int],
      kMax: Int,
      maxSegLen: Option[Int] = None,
  ): DPResult = {
    val cells = new Cells(positions, kMax, maxSegLen.getOrElse(Int.MaxValue))
    dp(cells, Array.tabulate(cells.size)(k => cost(cells.start(k), cells.end(k))))
  }

  /** Fewest ends per strip of [[dp]]'s wavefront. */
  private[core] val MinStripEnds = 64

  /** Runs the DP over `cells`, with `w(k)` the cost of cell k, as a
    * wavefront of strips of ends ([[Wavefront]]) on the calling thread and
    * the pool it runs in (the common pool outside one). Every D_k(a) gets
    * the pushes, in the order, of one thread running the layers one after
    * another, so the curve and the back-pointers do not depend on the
    * threads.
    */
  def dp(cells: Cells, w: Array[Double]): DPResult = {
    require(w.length == cells.size, s"${w.length} costs for ${cells.size} cells")
    new Wavefront(cells, w).run()
  }

  /** One run of Eq. 11 over `cells`. D_k(a) is the least total weighted
    * variance covering [p(0), p(a)] with k segments; D_0 is −0.0 at rank 0
    * (the additive identity, so layer 1 copies its costs bit for bit) and
    * +∞ elsewhere. Layer k pushes each finite D_{k−1}(b), b ascending, along
    * the cells from p(b), and only a strictly smaller sum wins, so each end
    * keeps its smallest arg-min b.
    *
    *  - '''Live window.''' Every cell spans at most maxSegLen, so a prefix
    *    ending at p(b) after k − 1 segments reaches p(last) within the
    *    kCap − k + 1 segments left only if p(last) − p(b) ≤
    *    (kCap − k + 1)·maxSegLen. Layer k pushes from no other b and fills
    *    no other end; every end a chain to p(last) passes through is live,
    *    so no curve value or scheme changes.
    *  - '''Strips.''' The ranks are split into strips of consecutive ends,
    *    at most the pool's parallelism + 1 and at least [[MinStripEnds]]
    *    ends each, with about equal numbers of cells ending in each. A
    *    thread claims whole strips in ascending order from one counter and
    *    runs every layer of the strip it holds. Before layer k, a strip
    *    waits (spinning) until the lower strips holding its ends' starts
    *    have finished layer k − 1; for phase I that is the strip below.
    *    Pushes into an end still come from ascending b: first the lower
    *    strips' ends, then its own.
    *  - '''No deadlock.''' A strip waits only on lower strips, which were
    *    claimed earlier by threads that are running them. So the caller
    *    alone runs every strip in order when no helper starts: the pool is
    *    busy, its parallelism is 1, or the DP runs inside a Spark task.
    *  - '''Memory.''' Two rows of D (each strip rotates its own ranks of
    *    them), the curve, and the history: for each strip but the last,
    *    each layer's D of its ends a higher strip reads, kCap·Σ tail
    *    doubles. A tail is the ends from the first start of the next strip
    *    on: at most the longest row's ends in phase I, the whole strip
    *    without a length cap. Back-pointers are the offset a − b, one per
    *    layer and rank: kCap·np bytes when no row spans more than 255 ranks
    *    (phase I: L ≤ 20), kCap·np ints otherwise.
    */
  private final class Wavefront(cells: Cells, w: Array[Double]) {
    private val p = cells.p
    private val np = p.length
    private val kCap = cells.kCap
    private val rowStart = cells.rowStart
    private val rows = rowStart.length - 1 // the start ranks that have cells
    private val inf = Double.PositiveInfinity

    // live(k): the lowest rank still live at layer k as a start, at k − 1
    // as an end; live(kCap + 1) = last.
    private val live = new Array[Int](kCap + 2)
    locally {
      var b = 0
      for (k <- 1 to kCap + 1) {
        while (p(np - 1).toLong - p(b) > (kCap - k + 1).toLong * cells.maxSegLen) b += 1
        live(k) = b
      }
    }

    // first(a): the lowest start rank of a cell ending at rank a (a − 1 when
    // none does). Row ends do not decrease with the start, so one pointer
    // finds them all. Only a run of several strips reads it.
    private val wanted = if (kCap < 2) 1 else math.min(ForkJoinPool.getCommonPoolParallelism + 1, (np - 1) / MinStripEnds)
    private val first = new Array[Int](if (wanted > 1) np else 0)
    // Strip s is the ranks bound(s) until bound(s + 1).
    private val bound: Array[Int] =
      if (wanted <= 1) Array(0, np)
      else {
        var ending = 0L // the cells ending at ranks 1 … np − 1
        var b = 0
        for (a <- 1 until np) {
          while (b < a - 1 && b + rowStart(b + 1) - rowStart(b) < a) b += 1
          first(a) = b
          ending += a - b
        }
        val out = new Array[Int](wanted + 1)
        var s = 1
        var below = 0L // the cells ending below rank a
        for (a <- 1 until np) {
          if (s < wanted && below * wanted >= s * ending) { out(s) = a; s += 1 }
          below += a - first(a)
        }
        out(s) = np
        java.util.Arrays.copyOf(out, s + 1)
      }
    private val strips = bound.length - 1
    // waitFrom(s): the lowest strip holding a start of strip s's cells.
    private val waitFrom = Array.tabulate(strips) { s =>
      var r = 0
      if (s > 0) while (bound(r + 1) <= first(bound(s))) r += 1
      r
    }
    // tailFrom(s): strip s's lowest end that a higher strip reads; hist(k)
    // holds D_k of every strip's tail, rank b at col(b).
    private val tailFrom = Array.tabulate(strips)(s => if (s + 1 < strips) math.max(bound(s), first(bound(s + 1))) else bound(s + 1))
    private val col = new Array[Int](if (strips > 1) np else 0)
    private val hist: Array[Array[Double]] = {
      var shared = 0
      for (s <- 0 until strips; b <- tailFrom(s) until bound(s + 1)) { col(b) = shared; shared += 1 }
      if (shared == 0) null
      else {
        val h = Array.fill(kCap)(new Array[Double](shared))
        java.util.Arrays.fill(h(0), inf)
        if (tailFrom(0) == 0) h(0)(col(0)) = -0.0
        h
      }
    }

    // rowsOfD(k & 1) holds layer k, each strip writing only its own ranks;
    // startOf(a) the arg-min start of the end a of the layer being filled.
    private val rowsOfD = Array.fill(2)(new Array[Double](np))
    java.util.Arrays.fill(rowsOfD(0), inf)
    rowsOfD(0)(0) = -0.0
    private val startOf = new Array[Int](np)
    private val curve = new Array[Double](kCap)
    private val byteOffsets = (0 until rows).forall(b => rowStart(b + 1) - rowStart(b) <= 255)
    private val backBytes = if (byteOffsets) Array.fill(kCap)(new Array[Byte](np)) else null
    private val backInts = if (byteOffsets) null else Array.fill(kCap)(new Array[Int](np))

    // done(s·Pad): the layers strip s has finished (kCap once it stops), a
    // cache line apart.
    private val Pad = 16
    private val done = new AtomicIntegerArray(strips * Pad)
    private val next = new AtomicInteger
    private val finished = new CountDownLatch(strips)
    private val failure = new AtomicReference[Throwable]

    def run(): DPResult = {
      for (_ <- 1 until strips) ForkJoinTask.adapt(new Runnable { def run(): Unit = work() }).fork()
      work()
      var interrupted = false
      while (finished.getCount > 0) try finished.await() catch { case _: InterruptedException => interrupted = true }
      if (interrupted) Thread.currentThread.interrupt()
      if (failure.get != null) throw failure.get
      val (bytes, ints) = (backBytes, backInts) // the schemes keep these, not the rows of D
      DPResult(curve.toVector, new Schemes(p, curve, (k, a) => a - (if (bytes != null) bytes(k)(a) & 0xff else ints(k)(a))))
    }

    /** Claims and runs strips until none is left. */
    private def work(): Unit = {
      var s = next.getAndIncrement()
      while (s < strips) {
        try strip(s)
        catch { case t: Throwable => failure.compareAndSet(null, t) }
        finally finished.countDown()
        s = next.getAndIncrement()
      }
    }

    /** Spins until strip r has finished `layers` layers. */
    private def await(r: Int, layers: Int): Unit =
      while (done.get(r * Pad) < layers) {
        if (failure.get != null) throw new CancellationException("another strip of the DP failed")
        Thread.onSpinWait()
      }

    /** Every layer of strip s, until its ends are no longer live. */
    private def strip(s: Int): Unit = {
      val lo = bound(s)
      val hi = bound(s + 1)
      val from = if (s == 0) 0 else first(lo)
      val tail = tailFrom(s)
      var k = 1
      while (k <= kCap && hi - 1 >= live(k + 1)) {
        var r = waitFrom(s)
        while (r < s) { await(r, k - 1); r += 1 }
        val prev = rowsOfD((k - 1) & 1)
        val cur = rowsOfD(k & 1)
        val older = if (s == 0) null else hist(k - 1)
        val ends = math.max(lo, live(k + 1)) // the live ends
        java.util.Arrays.fill(cur, ends, hi, inf)
        var b = math.max(math.max(from, k - 1), live(k))
        val bUntil = math.min(hi - 1, rows)
        while (b < bUntil) {
          val pb = if (b >= lo) prev(b) else older(col(b))
          if (pb < inf) {
            val aFrom = math.max(b + 1, ends)
            val aUntil = math.min(b + 1 + rowStart(b + 1) - rowStart(b), hi)
            var c = rowStart(b) + aFrom - b - 1
            var a = aFrom
            while (a < aUntil) {
              val v = pb + w(c)
              if (v < cur(a)) { cur(a) = v; startOf(a) = b }
              c += 1; a += 1
            }
          }
          b += 1
        }
        var a = math.max(ends, 1)
        if (backBytes != null) { val back = backBytes(k - 1); while (a < hi) { back(a) = (a - startOf(a)).toByte; a += 1 } }
        else { val back = backInts(k - 1); while (a < hi) { back(a) = a - startOf(a); a += 1 } }
        if (k < kCap) { a = math.max(tail, ends); while (a < hi) { hist(k)(col(a)) = cur(a); a += 1 } }
        if (hi == np) curve(k - 1) = cur(np - 1)
        done.set(s * Pad, k)
        k += 1
      }
      done.set(s * Pad, kCap)
    }
  }

  /** The optimal (k + 1)-segmentation at k, backtracked when read from
    * p(last) through k + 1 back-pointers to p(0), `from(kk, a)` being the
    * start rank of end a's last segment at layer kk + 1; None off the curve.
    */
  private final class Schemes(p: Array[Int], curve: Array[Double], from: (Int, Int) => Int)
      extends IndexedSeq[Option[SegScheme]] {
    def length: Int = curve.length
    def apply(k: Int): Option[SegScheme] = Option.when(curve(k) < Double.PositiveInfinity)(SegScheme(
      Iterator.iterate((k, p.length - 1)) { case (kk, a) => (kk - 1, from(kk, a)) }.take(k + 2).map(e => p(e._2)).toVector.reverse))
  }
}
