package repro.core

/** Weighted within-segment variance |P|·var(P) for arbitrary segments
  * (Section 4.1.4, Eq. 7 and the alternative metrics of Section 4.2.2).
  *
  * Objects are the unit segments [p_x, p_x+1]; the centroid of a partition
  * [p_i, p_j] is the partition itself. Top-explanation lists are supplied by
  * `topFn` (full CA, guess-and-verify CA, …) and should be cached by the
  * caller. [[values]] computes the costs of a DP run's cells, given their
  * list ids, and [[cost]] one cell at a time; neither memoizes. A list id
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
final class SegmentCosts(
    val cube: ExplCube,
    val metric: VarianceMetric,
    topFn: Segment => TopIds,
) {
  private val ndcg = new Ndcg(cube)
  private val nUnits = cube.n - 1
  // The two directions of Eq. 6: how well an object's list explains the
  // centroid (all Eq. 6 metrics but dist2) and how well the centroid's list
  // explains an object (all but dist1).
  private val toCentroid = metric != VarianceMetric.Dist2 && metric != VarianceMetric.SDist2
  private val toObject = metric != VarianceMetric.Dist1 && metric != VarianceMetric.SDist1
  private val allPair = metric == VarianceMetric.AllPair || metric == VarianceMetric.SAllPair

  // The unit segments (objects), built once: a fresh Segment per object
  // read in a cost loop allocates unless the JIT elides it.
  private val units: Array[Segment] = Array.tabulate(nUnits)(x => Segment(x, x + 1))

  private val lists = new SegmentCosts.ListIds // the distinct lists met so far

  private def unitTop(x: Int): TopIds = topFn(units(x))

  // Pairwise object-object distances, needed only by the allpair metrics.
  private lazy val pairDist: Array[Array[Double]] = {
    val idcg = unitTables.idcg
    val d = Array.fill(nUnits)(new Array[Double](nUnits))
    var x = 0
    while (x < nUnits) {
      var y = x + 1
      while (y < nUnits) {
        val v = 1.0 - (ndcg.ndcgGiven(idcg(x), units(x), unitTop(y)) + ndcg.ndcgGiven(idcg(y), units(y), unitTop(x))) / 2.0
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

  /** The unit-level tables, built in one pass over the units. */
  private final class UnitTables {
    // Each unit's self-DCG, the IDCG of Eq. 5 with the unit as target.
    val idcg = new Array[Double](nUnits)
    // Unit x's list id, below unitIds: the units are interned first.
    val listOf = new Array[Int](if (allPair) 0 else nUnits)
    for (x <- 0 until nUnits) {
      val top = unitTop(x)
      idcg(x) = ndcg.dcgSelf(units(x), top)
      if (!allPair) listOf(x) = lists.idOf(top)
    }
    val unitIds: Int = lists.reps.size
    // The unit change s_e(x + 1) − s_e(x) at e·(n − 1) + x, which the
    // centroid→object term of the Eq. 6 kernel reads.
    val delta = new Array[Double](if (allPair || !toObject) 0 else cube.epsilon * nUnits)
    if (delta.nonEmpty) for (e <- 0 until cube.epsilon) {
      val s = cube.series(e)
      var x = 0
      while (x < nUnits) { delta(e * nUnits + x) = s(x + 1) - s(x); x += 1 }
    }
  }

  // Built on first use, once the unit lists can be read; `intern` and
  // `values` build it on the calling thread, before other lists or blocks.
  private lazy val unitTables = new UnitTables

  /** `top`'s row in the table of distinct lists, the unit lists (read
    * through `topFn`) first; call it from one thread, not during [[values]].
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
        if (sc.seen(u) != cell) { toC(u) = ndcg.ndcgGiven(cIdcg, cseg, lists.reps(u)); sc.seen(u) = cell }
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
      val ctop = lists.reps(ids(k))
      if (toObject) {
        if (ids(k) != run) { run = ids(k); covered = 0 }
        if (j > covered) { toObjectTerms(ctop, math.max(i, covered), j, sc); covered = j }
      }
      out(k) = eq6Var(i, j, ctop, sc)
      r += 1
    }
  }

  /** The cost of each of `cells`, in cell order, with `ids(k)` the [[intern]]
    * id of cell k's top list (not read by the all-pair metrics). Computed in
    * parallel blocks on the JVM's common ForkJoinPool; `topFn`, which gives
    * the unit lists here, must be safe to call from several threads, as a
    * lookup in an already filled table is. Memoizes nothing.
    */
  def values(cells: KSegmentation.Cells, ids: Array[Int]): Array[Double] = {
    val out = new Array[Double](cells.size)
    if (allPair) Blocks.run(cells.size) { (from, until) =>
      var k = from
      while (k < until) { out(k) = allPairVar(cells.start(k), cells.end(k)); k += 1 }
    } else {
      val tables = unitTables
      // The cells by list id, a stable counting sort; the blocks take slices.
      val next = new Array[Int](lists.reps.size + 1)
      for (id <- ids) next(id + 1) += 1
      for (g <- 1 until next.length) next(g) += next(g - 1)
      val order = new Array[Int](cells.size)
      for (k <- 0 until cells.size) { order(next(ids(k))) = k; next(ids(k)) += 1 }
      Blocks.run(cells.size)((from, until) => valuesBlock(cells, ids, order, from, until, tables, out))
    }
    out
  }

  /** Objective Σ |P_k|·var(P_k) of a full segmentation scheme (Problem 1). */
  def objective(scheme: SegScheme): Double =
    scheme.segments.iterator.map(s => cost(s.i, s.j)).sum
}

object SegmentCosts {

  private final class Key(var t: TopIds) {
    override def hashCode: Int = java.util.Arrays.hashCode(t.ids) * 31 + java.util.Arrays.hashCode(t.taus)
    override def equals(o: Any): Boolean = o match {
      case k: Key => java.util.Arrays.equals(t.ids, k.t.ids) && java.util.Arrays.equals(t.taus, k.t.taus)
      case _ => false
    }
  }

  /** Ids 0, 1, … for lists in order of first sight, two lists sharing one
    * when they rank the same ids with the same τs; `reps(u)` is the first
    * list given id u. A lookup allocates nothing: it probes with one
    * reusable key.
    */
  private final class ListIds {
    private val index = new java.util.HashMap[Key, Integer]
    private val probe = new Key(null)
    val reps = scala.collection.mutable.ArrayBuffer.empty[TopIds]

    def idOf(t: TopIds): Int = {
      probe.t = t
      val id = index.get(probe)
      if (id != null) id
      else { index.put(new Key(t), reps.size); reps += t; reps.size - 1 }
    }
  }
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
  final class Cells(positions: Vector[Int], kMax: Int, maxSegLen: Int) {
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

  /** Runs the DP over `cells`, with `w(k)` the cost of cell k, keeping two
    * rows of D, the curve and the back-pointers.
    */
  def dp(cells: Cells, w: Array[Double]): DPResult = {
    require(w.length == cells.size, s"${w.length} costs for ${cells.size} cells")
    val p = cells.p
    val np = p.length
    val kCap = cells.kCap
    val rowStart = cells.rowStart
    val inf = Double.PositiveInfinity
    // prev(b) and cur(a): min total weighted variance covering [p(0), p(b)]
    // with k − 1 segments and [p(0), p(a)] with k. Where cur(a) is finite,
    // from(k − 1)(a) is the start rank of the last of those k. With no
    // segments only p(0) is covered, at −0.0: the additive identity, so
    // layer 1 copies its costs bit for bit.
    var prev = new Array[Double](np)
    var cur = new Array[Double](np)
    java.util.Arrays.fill(cur, inf)
    cur(0) = -0.0
    val from = Array.fill(kCap)(new Array[Int](np))
    val curve = new Array[Double](kCap)
    // Layer k pushes each finite prev(b) along the cells from p(b); b
    // ascends and only a strictly smaller sum wins, so each end keeps its
    // smallest arg-min b.
    for (k <- 1 to kCap) {
      val t = prev; prev = cur; cur = t
      java.util.Arrays.fill(cur, inf)
      val arg = from(k - 1)
      var b = k - 1
      while (b < rowStart.length - 1) {
        val pb = prev(b)
        if (pb < inf) {
          var c = rowStart(b)
          var a = b + 1
          while (c < rowStart(b + 1)) {
            val v = pb + w(c)
            if (v < cur(a)) { cur(a) = v; arg(a) = b }
            c += 1; a += 1
          }
        }
        b += 1
      }
      curve(k - 1) = cur(np - 1)
    }
    DPResult(curve.toVector, new Schemes(p, from, curve))
  }

  /** The optimal (k + 1)-segmentation at k, backtracked when read from
    * p(last) through k + 1 back-pointers to p(0); None off the curve.
    */
  private final class Schemes(p: Array[Int], from: Array[Array[Int]], curve: Array[Double])
      extends IndexedSeq[Option[SegScheme]] {
    def length: Int = curve.length
    def apply(k: Int): Option[SegScheme] = Option.when(curve(k) < Double.PositiveInfinity)(SegScheme(
      Iterator.iterate((k, p.length - 1)) { case (kk, a) => (kk - 1, from(kk)(a)) }.take(k + 2).map(e => p(e._2)).toVector.reverse))
  }
}
