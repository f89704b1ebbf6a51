package repro.core

/** Weighted within-segment variance |P|·var(P) for arbitrary segments
  * (Section 4.1.4, Eq. 7 and the alternative metrics of Section 4.2.2).
  *
  * Objects are the unit segments [p_x, p_x+1]; the centroid of a partition
  * [p_i, p_j] is the partition itself. Top-explanation lists are supplied by
  * `topFn` (full CA, guess-and-verify CA, …) and should be cached by the
  * caller — this class memoizes costs in a dense n×n array, each unit's
  * self-DCG, and the pairwise object distances the all-pair metrics share.
  *
  * The Eq. 6 metrics (all but the all-pair ones) sum, over the objects x of
  * a cell, a term of how well x's list explains the centroid and a term of
  * how well the centroid's list explains x. The first depends on x only
  * through x's list, so a cell computes it once per distinct unit list; the
  * second depends on the centroid only through its list's ids and τs, so
  * cells with equal centroid lists share it per object, and it reads the
  * unit changes from one flat ε×(n−1) array. Both are computed with the
  * operations, in the order, of [[Ndcg.ndcgGiven]], so every cost keeps its
  * bits whichever cells share the work.
  */
final class SegmentCosts(
    val cube: ExplCube,
    val metric: VarianceMetric,
    topFn: Segment => TopIds,
) {
  private val ndcg = new Ndcg(cube)
  private val n = cube.n
  private val nUnits = n - 1
  // The two directions of Eq. 6: how well an object's list explains the
  // centroid (all Eq. 6 metrics but dist2) and how well the centroid's list
  // explains an object (all but dist1).
  private val toCentroid = metric != VarianceMetric.Dist2 && metric != VarianceMetric.SDist2
  private val toObject = metric != VarianceMetric.Dist1 && metric != VarianceMetric.SDist1
  private val allPair = metric == VarianceMetric.AllPair || metric == VarianceMetric.SAllPair

  // The unit segments (objects), built once: a fresh Segment per object
  // read in weightedVar's loop allocates unless the JIT elides it.
  private val units: Array[Segment] = Array.tabulate(nUnits)(x => Segment(x, x + 1))

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
    // The distinct unit lists of the Eq. 6 kernel: unit x's list is
    // listRep(listOf(x)).
    val listOf = new Array[Int](if (allPair) 0 else nUnits)
    private val ids = new SegmentCosts.ListIds(nUnits)
    for (x <- 0 until nUnits) {
      val top = unitTop(x)
      idcg(x) = ndcg.dcgSelf(units(x), top)
      if (!allPair) listOf(x) = ids.idOf(top)
    }
    val listRep: Array[TopIds] = ids.reps.toArray
    // The unit change s_e(x + 1) − s_e(x) at e·(n − 1) + x, which the
    // centroid→object term of the Eq. 6 kernel reads.
    val delta = new Array[Double](if (allPair || !toObject) 0 else cube.epsilon * nUnits)
    if (delta.nonEmpty) for (e <- 0 until cube.epsilon) {
      val s = cube.series(e)
      var x = 0
      while (x < nUnits) { delta(e * nUnits + x) = s(x + 1) - s(x); x += 1 }
    }
  }

  // Built on first use, once the unit lists can be read; `fill` builds it
  // on the calling thread, before its blocks read it.
  private lazy val unitTables = new UnitTables

  /** One thread's working arrays for the Eq. 6 kernel. */
  private final class Scratch(val t: UnitTables) {
    // The object→centroid term of the current cell per unit list, valid
    // where seen(u) == cell.
    val toCentroidTerm = new Array[Double](t.listRep.length)
    val seen = new Array[Int](t.listRep.length)
    var cell = 0
    // The centroid→object term of the current centroid list per object.
    val toObjectTerm = new Array[Double](if (toObject) nUnits else 0)
  }

  // Computed on first use by the lazy path, which runs on the caller's thread.
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
    val rep = sc.t.listRep
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
        if (sc.seen(u) != cell) { toC(u) = ndcg.ndcgGiven(cIdcg, cseg, rep(u)); sc.seen(u) = cell }
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
    * the object count, which is what the DP objective of Problem 1 sums).
    * Not memoized; like [[cost]], call it from one thread at a time.
    */
  def weightedVar(i: Int, j: Int): Double =
    if (allPair) allPairVar(i, j)
    else {
      val ctop = topFn(Segment(i, j))
      val sc = callerScratch
      if (toObject) toObjectTerms(ctop, i, j, sc)
      eq6Var(i, j, ctop, sc)
    }

  // weightedVar(i, j) at i·n + j; NaN marks a cell not yet computed.
  private val costMemo = Array.fill(n * n)(Double.NaN)

  /** Memoized [[weightedVar]]. */
  def cost(i: Int, j: Int): Double = {
    val c = i * n + j
    var v = costMemo(c)
    if (v.isNaN) { v = weightedVar(i, j); costMemo(c) = v }
    v
  }

  /** Computes the memo cells `cells(from until until)` (codes i·n + j). For
    * the Eq. 6 metrics the cells are taken group by group, a group being the
    * cells with equal centroid lists in their given order. Within a run of
    * ascending starts, as a DP's cells come, a group computes its
    * centroid→object terms once for each object some cell of it covers.
    */
  private def fillBlock(cells: Array[Int], from: Int, until: Int, tables: UnitTables): Unit =
    if (allPair) {
      var k = from
      while (k < until) { costMemo(cells(k)) = allPairVar(cells(k) / n, cells(k) % n); k += 1 }
    } else {
      val size = until - from
      val tops = new Array[TopIds](size)
      val vals = new Array[Double](size)
      var k = 0
      while (k < size) { val c = cells(from + k); tops(k) = topFn(Segment(c / n, c % n)); k += 1 }
      // The cells by group (a counting sort), unless the metric skips the
      // centroid→object term.
      val order = Array.range(0, size)
      val group = new Array[Int](size)
      if (toObject) {
        val lists = new SegmentCosts.ListIds(size)
        for (k <- 0 until size) group(k) = lists.idOf(tops(k))
        val next = new Array[Int](lists.reps.size + 1)
        for (g <- group) next(g + 1) += 1
        for (g <- 1 until next.length) next(g) += next(g - 1)
        for (k <- 0 until size) { order(next(group(k))) = k; next(group(k)) += 1 }
      }
      val sc = new Scratch(tables)
      var run = -1 // the group of the current run
      var start = 0 // the start of its last cell
      var covered = 0 // its objects in [start, covered) hold their terms
      var r = 0
      while (r < size) {
        val k = order(r)
        val c = cells(from + k)
        val i = c / n
        val j = c % n
        val ctop = tops(k)
        if (toObject) {
          if (group(k) != run || i < start) { run = group(k); covered = 0 }
          start = i
          if (j > covered) { toObjectTerms(ctop, math.max(i, covered), j, sc); covered = j }
        }
        vals(k) = eq6Var(i, j, ctop, sc)
        r += 1
      }
      // Written back in the given order, which is the memo's for a DP's cells.
      k = 0
      while (k < size) { costMemo(cells(from + k)) = vals(k); k += 1 }
    }

  /** Computes the memo cells of `segments` not yet computed, in parallel
    * blocks on the JVM's common ForkJoinPool, so that [[cost]] then only
    * reads them. `topFn` must be safe to call from several threads, as a
    * lookup in an already filled table is; [[cost]] alone calls it from the
    * caller's thread only.
    */
  def fill(segments: Iterator[Segment]): Unit = {
    val todo = Array.newBuilder[Int]
    for (s <- segments) {
      val c = s.i * n + s.j
      if (costMemo(c).isNaN) todo += c
    }
    val cells = todo.result()
    if (cells.nonEmpty) {
      val tables = if (allPair) null else unitTables
      Blocks.run(cells.length)((from, until) => fillBlock(cells, from, until, tables))
    }
  }

  /** Objective Σ |P_k|·var(P_k) of a full segmentation scheme (Problem 1). */
  def objective(scheme: SegScheme): Double =
    scheme.segments.iterator.map(s => cost(s.i, s.j)).sum
}

object SegmentCosts {

  /** Whether two lists rank the same ids with the same τs, all that the
    * Eq. 6 kernel reads of a list besides its own segment.
    */
  private def sameList(a: TopIds, b: TopIds): Boolean =
    java.util.Arrays.equals(a.ids, b.ids) && java.util.Arrays.equals(a.taus, b.taus)

  /** Ids 0, 1, … for at most `capacity` lists by [[sameList]], in order of
    * first sight; `reps(u)` is the first list given id u. An open-addressing
    * table of the lists' hashes, so a lookup allocates nothing.
    */
  private final class ListIds(capacity: Int) {
    private val slots = new Array[Int](Integer.highestOneBit(math.max(1, 2 * capacity)) * 2) // id + 1; 0 is empty
    private val mask = slots.length - 1
    private val shift = Integer.numberOfLeadingZeros(mask)
    val reps = scala.collection.mutable.ArrayBuffer.empty[TopIds]

    def idOf(t: TopIds): Int = {
      val hash = java.util.Arrays.hashCode(t.ids) * 31 + java.util.Arrays.hashCode(t.taus)
      var slot = hash * 0x9e3779b9 >>> shift
      while (slots(slot) != 0 && !sameList(reps(slots(slot) - 1), t)) slot = (slot + 1) & mask
      if (slots(slot) == 0) { reps += t; slots(slot) = reps.size }
      slots(slot) - 1
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
    * constraint (e.g. K = 1 during sketch phase I).
    */
  final case class DPResult(curve: Vector[Double], schemes: Vector[Option[SegScheme]])

  /** Runs the DP over the cut positions `positions` (sorted, distinct).
    * `cost(p(b), p(a))` is read exactly once for each pair the DP may use:
    * every pair within `maxSegLen`, or, when kMax = 1, only those from the
    * first position.
    */
  def dp(
      cost: (Int, Int) => Double,
      positions: Vector[Int],
      kMax: Int,
      maxSegLen: Option[Int] = None,
  ): DPResult = {
    require(positions.size >= 2 && positions == positions.sorted && positions.distinct == positions,
      s"bad candidate positions")
    val p = positions.toArray
    val np = p.length
    val kCap = math.min(kMax, np - 1)
    require(kCap >= 1, "need at least one segment")
    // A segment ending at p(a) may start at p(b) only for b ≥ firstStart(a),
    // the first position within maxSegLen of p(a) (nondecreasing in a).
    val cap = maxSegLen.getOrElse(Int.MaxValue)
    val firstStart = new Array[Int](np)
    var a = 0
    var lo = 0
    while (a < np) {
      while (lo < a && p(a) - p(lo) > cap) lo += 1
      firstStart(a) = lo
      a += 1
    }

    // Each cell the DP may use, read once: row a holds cost(p(b), p(a)) for
    // b ∈ [firstStart(a), a) at rowStart(a) + b − firstStart(a); with one
    // segment at most, only the cells from p(0).
    val rowStart = new Array[Int](np + 1)
    a = 0
    while (a < np) {
      val len = if (kCap >= 2) a - firstStart(a) else if (a > 0 && firstStart(a) == 0) 1 else 0
      rowStart(a + 1) = rowStart(a) + len
      a += 1
    }
    val w = new Array[Double](rowStart(np))
    a = 1
    while (a < np) {
      var c = rowStart(a)
      var b = firstStart(a)
      while (c < rowStart(a + 1)) { w(c) = cost(p(b), p(a)); b += 1; c += 1 }
      a += 1
    }

    val inf = Double.PositiveInfinity
    // d(k)(a): min total weighted variance covering [p(0), p(a)] with k segments.
    val d = Array.fill(kCap + 1)(Array.fill(np)(inf))
    val from = Array.fill(kCap + 1)(Array.fill(np)(-1))
    a = 1
    while (a < np) {
      if (firstStart(a) == 0) { d(1)(a) = w(rowStart(a)); from(1)(a) = 0 }
      a += 1
    }
    var k = 2
    while (k <= kCap) {
      val prev = d(k - 1)
      a = k // need at least k segments worth of positions before p(a)
      while (a < np) {
        val row = rowStart(a) - firstStart(a) // w(row + b) = cost(p(b), p(a))
        var b = math.max(k - 1, firstStart(a))
        var best = inf
        var arg = -1
        while (b < a) {
          if (prev(b) < inf) {
            val v = prev(b) + w(row + b)
            if (v < best) { best = v; arg = b }
          }
          b += 1
        }
        d(k)(a) = best; from(k)(a) = arg
        a += 1
      }
      k += 1
    }

    val last = np - 1
    val curve = Vector.newBuilder[Double]
    val schemes = Vector.newBuilder[Option[SegScheme]]
    k = 1
    while (k <= kCap) {
      if (d(k)(last) < inf) {
        curve += d(k)(last)
        val cuts = scala.collection.mutable.ArrayBuffer[Int](p(last))
        var kk = k
        var cur = last
        while (kk >= 1) {
          val b = from(kk)(cur)
          cuts += p(b)
          cur = b; kk -= 1
        }
        schemes += Some(SegScheme(cuts.reverse.toVector))
      } else {
        curve += inf
        schemes += None
      }
      k += 1
    }
    DPResult(curve.result(), schemes.result())
  }
}
