package repro.core

/** The Cascading Analysts algorithm (Ruhl, Sundararajan, Yan [38]) — top-m
  * non-overlapping explanations for one segment (Section 5.2, module b).
  *
  * The algorithm simulates an analyst who, starting from the whole data,
  * either *selects* the current slice as an explanation (closing its subtree,
  * which guarantees non-overlap with any refinement) or *drills down* on one
  * not-yet-constrained attribute, partitioning the slice by that attribute's
  * values and distributing the remaining quota among the children (siblings
  * differ on the drilled attribute, hence are non-overlapping). Both the
  * drill-down dimension choice and the quota split are optimized by dynamic
  * programming to maximize Σ γ(E) under |selections| ≤ m.
  *
  * `bestOf` walks the cube's int-array drill-down index
  * ([[ExplCube.DrillDown]]) and memoizes the per-context score vector
  * Best_ctx[0..m]; the memo is reused across segments and O1's guesses via
  * version stamps. A leaf child (no child group, or depth ≥ β̄) has Best =
  * (0, γ, …, γ); a knapsack row is nondecreasing in the quota and IEEE
  * addition is monotone, so max over w of row(q − w) + γ is row(q − 1) + γ,
  * and a leaf folds in as max(row(q), row(q − 1) + γ), in O(m), with no memo
  * entry. Each child group keeps its knapsack rows in one flat table of
  * Σ (kids + 1)·(m + 1) doubles (967 KiB at ε = 9,349 and m = 3), which
  * `backtrack` reads. [[solve]] leaves its answer in the instance's arrays
  * ([[TopSolver]]) and allocates nothing; [[topIds]] copies it out.
  * Instances are NOT thread-safe — create one per thread/task.
  *
  * @param cube     explanation cube with γ/τ lookups and drill-down adjacency
  * @param m        explanation quota (paper default 3)
  * @param maxOrder order threshold β̄ (paper default 3)
  */
final class CascadingAnalysts(val cube: ExplCube, val m: Int, val maxOrder: Int = 3) extends TopSolver {
  require(m >= 1, "m must be positive")

  private val eps = cube.epsilon
  private val dd = cube.drillDown
  // The memo's and the knapsack rows' entries, m + 1 each per context and
  // per child or group, counted before either is allocated.
  private val memoSize = (eps + 1L) * (m + 1L)
  private val rowsSize = (dd.childIds.length + dd.childStart.length - 1L) * (m + 1L)
  require(memoSize <= Int.MaxValue - 8 && rowsSize <= Int.MaxValue - 8,
    s"m = $m on ε = $eps explanations needs $memoSize memo and $rowsSize knapsack entries, more than one array holds")
  private val all = Array.fill(eps)(true)
  // memo(id + 1)(q) = best score of subtree rooted at context id with quota q;
  // id -1 is the virtual root (empty conjunction, not selectable).
  private val memo = Array.fill(eps + 1)(new Array[Double](m + 1))
  private val stamp = new Array[Int](eps + 1)
  private var version = 0
  private var seg: Segment = _
  private var active: Array[Boolean] = all
  private val nameRank = cube.nameRank
  // The answer: backtrack's selected ids, then ranked in place, and their τs.
  val ids = new Array[Int](m)
  val taus = new Array[Int](m)
  private var nSelected = 0
  def size: Int = nSelected
  /** The Best vector of the last solve: the root's memo row. */
  def best: Array[Double] = memo(0)

  // leaf(id + 1): the context drills into nothing, having no child group or
  // a depth (its order; the root's is 0) of at least β̄.
  private val leaf = Array.tabulate(eps + 1)(slot => dd.groupStart(slot) == dd.groupStart(slot + 1) ||
    (if (slot == 0) 0 else cube.expls(slot - 1).order) >= maxOrder)
  // Group g's knapsack rows, stride m + 1, from (childStart(g) + g)·(m + 1):
  // a zero row, then one per active child of the segment, kids(g) of them,
  // the r-th being kid(childStart(g) + r).
  private val stride = m + 1
  private val rows = new Array[Double](rowsSize.toInt)
  private val kids = new Array[Int](dd.childStart.length - 1)
  private val kid = new Array[Int](dd.childIds.length)

  private def bestOf(id: Int): Array[Double] = {
    val slot = id + 1
    if (stamp(slot) == version) return memo(slot)
    val out = memo(slot)
    java.util.Arrays.fill(out, 0.0)
    // Option 1: select this slice — worth γ, closes the subtree.
    if (id >= 0) {
      val g = cube.gamma(id, seg)
      if (g > 0) java.util.Arrays.fill(out, 1, m + 1, g)
    }
    // Option 2: drill down on one remaining attribute; knapsack the quota
    // over that attribute's active children, a row per child. A leaf's
    // Best(w) is γ for every w ≥ 1, so only its share w = 1 can win.
    if (!leaf(slot)) {
      var g = dd.groupStart(slot)
      while (g < dd.groupStart(slot + 1)) {
        var row = (dd.childStart(g) + g) * stride
        var r = dd.childStart(g)
        var c = dd.childStart(g)
        while (c < dd.childStart(g + 1)) {
          val childId = dd.childIds(c)
          if (active(childId)) {
            val next = row + stride
            val child = if (leaf(childId + 1)) null else bestOf(childId)
            val gamma = cube.gamma(childId, seg)
            var q = 1
            while (q <= m) {
              var best = rows(row + q)
              var w = 1
              while (w <= (if (child == null) 1 else q)) {
                val v = rows(row + q - w) + (if (child == null) gamma else child(w))
                if (v > best) best = v
                w += 1
              }
              rows(next + q) = best
              q += 1
            }
            kid(r) = childId
            r += 1
            row = next
          }
          c += 1
        }
        kids(g) = r - dd.childStart(g)
        var q = 1
        while (q <= m) { if (rows(row + q) > out(q)) out(q) = rows(row + q); q += 1 }
        g += 1
      }
    }
    // At-most semantics: scores are nondecreasing in q.
    var q = 1
    while (q <= m) { if (out(q - 1) > out(q)) out(q) = out(q - 1); q += 1 }
    stamp(slot) = version
    out
  }

  /** Re-walks the solved DP making argmax decisions to recover the selected
    * explanation ids from the memo and the kept rows.
    */
  private def backtrack(id: Int, q: Int): Unit = {
    if (q == 0) return
    val slot = id + 1
    val target = memo(slot)(q)
    if (target <= 0.0) return
    if (memo(slot)(q - 1) == target) { backtrack(id, q - 1); return }
    if (id >= 0 && cube.gamma(id, seg) == target) { ids(nSelected) = id; nSelected += 1; return }
    if (!leaf(slot)) {
      var g = dd.groupStart(slot)
      while (g < dd.groupStart(slot + 1)) {
        var row = (dd.childStart(g) + g + kids(g)) * stride
        if (rows(row + q) == target) {
          // Each active child's share, until the quota is spent: the first u
          // whose sum beats the row above strictly, as in solve (a leaf's
          // Best(u) is γ).
          var w = q
          var r = kids(g)
          while (r > 0 && w > 0) {
            row -= stride
            r -= 1
            val childId = kid(dd.childStart(g) + r)
            val child = if (leaf(childId + 1)) null else memo(childId + 1)
            val gamma = cube.gamma(childId, seg)
            var best = rows(row + w)
            var u = 0
            var v = 1
            while (v <= w) {
              val s = rows(row + w - v) + (if (child == null) gamma else child(v))
              if (s > best) { best = s; u = v }
              v += 1
            }
            if (u > 0 && child == null) { ids(nSelected) = childId; nSelected += 1 }
            else if (u > 0) backtrack(childId, u)
            w -= u
          }
          return
        }
        g += 1
      }
    }
    throw new IllegalStateException(s"backtrack failed at ctx=$id q=$q target=$target")
  }

  /** The ranking order of [[topIds]]: γ descending, then name; the order
    * `sortBy(id => (-γ, name))` gives, with names compared by rank.
    */
  private def ranksBefore(a: Int, b: Int): Boolean = {
    val c = java.lang.Double.compare(-cube.gamma(a, seg), -cube.gamma(b, seg))
    c < 0 || (c == 0 && nameRank(a) < nameRank(b))
  }

  /** Top-m non-overlapping explanations of `segment` as compact ids ranked by
    * γ descending, with the Best[0..m] score vector (Definition 3.5 / Eq. 12),
    * left in [[ids]], [[taus]] and [[best]].
    */
  def solve(segment: Segment): Unit = solve(segment, all)

  /** [[solve]] over only the explanations marked in `active` (O1's
    * restricted input): the same answer as CA on the sub-cube of the marked
    * ids. `active` must be closed under sub-conjunctions, as
    * [[ExplCube.markWithAncestors]] leaves it.
    */
  def solve(segment: Segment, active: Array[Boolean]): Unit = {
    require(active.length == eps, "mask must cover every explanation")
    seg = segment
    this.active = active
    version += 1
    bestOf(-1)
    nSelected = 0
    backtrack(-1, m)
    // A stable insertion sort of the at most m selected ids.
    var r = 1
    while (r < nSelected) {
      val id = ids(r)
      var p = r
      while (p > 0 && ranksBefore(id, ids(p - 1))) { ids(p) = ids(p - 1); p -= 1 }
      ids(p) = id
      r += 1
    }
    r = 0
    while (r < nSelected) { taus(r) = cube.tau(ids(r), segment); r += 1 }
  }

  /** [[solve]] over the ids marked in `active`, copied out. */
  def topIds(segment: Segment, active: Array[Boolean]): TopIds = { solve(segment, active); answer(segment) }
}

object CascadingAnalysts {
  /** `t` with each id's explanation and γ on `t.seg` read from `cube`. */
  def pretty(cube: ExplCube, t: TopIds): TopExpl =
    TopExpl(
      t.ids.indices.map(r => RankedExpl(cube.expls(t.ids(r)), cube.gamma(t.ids(r), t.seg), t.taus(r))).toVector,
      t.best.toVector,
    )
}
