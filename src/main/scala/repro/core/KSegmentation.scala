package repro.core

/** Weighted within-segment variance |P|·var(P) for arbitrary segments
  * (Section 4.1.4, Eq. 7 and the alternative metrics of Section 4.2.2).
  *
  * Objects are the unit segments [p_x, p_x+1]; the centroid of a partition
  * [p_i, p_j] is the partition itself. Top-explanation lists are supplied by
  * `topFn` (full CA, guess-and-verify CA, …) and should be cached by the
  * caller — this class memoizes costs in a dense n×n array, each unit's
  * self-DCG, and the pairwise object distances the all-pair metrics share.
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

  // The unit segments (objects), built once: a fresh Segment per object
  // read in weightedVar's loop allocates unless the JIT elides it.
  private val units: Array[Segment] = Array.tabulate(nUnits)(x => Segment(x, x + 1))

  private def unitTop(x: Int): TopIds = topFn(units(x))

  // Each unit's self-DCG, the IDCG of Eq. 5 with the unit as target; built
  // on first use, once the unit lists can be read.
  private lazy val unitIdcg: Array[Double] = Array.tabulate(nUnits)(x => ndcg.dcgSelf(units(x), unitTop(x)))

  // Pairwise object-object distances, needed only by the allpair metrics.
  private lazy val pairDist: Array[Array[Double]] = {
    val idcg = unitIdcg
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

  /** |P|·var(P) for the partition spanning indices [i, j] (Eq. 7 weighted by
    * the object count, which is what the DP objective of Problem 1 sums).
    */
  def weightedVar(i: Int, j: Int): Double = {
    val len = j - i
    metric match {
      case VarianceMetric.AllPair | VarianceMetric.SAllPair =>
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
      case _ =>
        // Eq. 6 (tse) or one of its directions (dist1, dist2) between the
        // centroid and each object, each IDCG computed once.
        val cseg = Segment(i, j)
        val ctop = topFn(cseg)
        val cIdcg = if (toCentroid) ndcg.dcgSelf(cseg, ctop) else 0.0
        val oIdcg = if (toObject) unitIdcg else null
        var s = 0.0
        var x = i
        while (x < j) {
          val d =
            if (!toObject) 1.0 - ndcg.ndcgGiven(cIdcg, cseg, unitTop(x))
            else if (!toCentroid) 1.0 - ndcg.ndcgGiven(oIdcg(x), units(x), ctop)
            else 1.0 - (ndcg.ndcgGiven(cIdcg, cseg, unitTop(x)) + ndcg.ndcgGiven(oIdcg(x), units(x), ctop)) / 2.0
          s += sq(d)
          x += 1
        }
        s
    }
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
    Blocks.run(cells.length) { (from, until) =>
      var k = from
      while (k < until) {
        val c = cells(k)
        costMemo(c) = weightedVar(c / n, c % n)
        k += 1
      }
    }
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
    * constraint (e.g. K = 1 during sketch phase I).
    */
  final case class DPResult(curve: Vector[Double], schemes: Vector[Option[SegScheme]])

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

    val inf = Double.PositiveInfinity
    // d(k)(a): min total weighted variance covering [p(0), p(a)] with k segments.
    val d = Array.fill(kCap + 1)(Array.fill(np)(inf))
    val from = Array.fill(kCap + 1)(Array.fill(np)(-1))
    a = 1
    while (a < np) {
      if (firstStart(a) == 0) { d(1)(a) = cost(p(0), p(a)); from(1)(a) = 0 }
      a += 1
    }
    var k = 2
    while (k <= kCap) {
      a = k // need at least k segments worth of positions before p(a)
      while (a < np) {
        var b = math.max(k - 1, firstStart(a))
        var best = inf
        var arg = -1
        while (b < a) {
          if (d(k - 1)(b) < inf) {
            val v = d(k - 1)(b) + cost(p(b), p(a))
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
