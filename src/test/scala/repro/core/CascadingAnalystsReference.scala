package repro.core

/** The Cascading Analysts solver as it stood before leaf children joined the
  * knapsack in O(m) and backtrack read the rows `solve` kept: each child is
  * solved into the memo and folded in with the O(m²) knapsack, and
  * `backtrack` recomputes each group's knapsack with pointer tables. Kept
  * only as the bit-for-bit reference of [[CascadingAnalysts]]' ids, τs and
  * Best vectors (`CascadingAnalystsSpec`).
  */
final class CascadingAnalystsReference(val cube: ExplCube, val m: Int, val maxOrder: Int = 3) {
  require(m >= 1, "m must be positive")

  private val eps = cube.epsilon
  private val dd = cube.drillDown
  private val all = Array.fill(eps)(true)
  private val zeros = new Array[Double](m + 1)
  // memo(id + 1)(q) = best score of subtree rooted at context id with quota q;
  // id -1 is the virtual root (empty conjunction, not selectable).
  private val memo = Array.fill(eps + 1)(new Array[Double](m + 1))
  private val stamp = new Array[Int](eps + 1)
  private var version = 0
  private var seg: Segment = _
  private var active: Array[Boolean] = all
  private val nameRank = cube.nameRank
  private val selected = new Array[Int](m)
  private var nSelected = 0

  // A context's depth is its order (the root's is 0); only depths below β̄
  // drill down. The knapsack tables of a context stay live while its
  // children (one depth deeper) are solved or backtracked, so each depth
  // has its own: `cur` (m + 1) for solve; `rows` and `take`, (kids + 1)
  // rows of stride m + 1 for the widest child group, for backtrack.
  private val depth = Array.tabulate(eps + 1)(slot => if (slot == 0) 0 else cube.expls(slot - 1).order)
  private val widest = (0 until dd.childStart.length - 1).iterator
    .map(g => dd.childStart(g + 1) - dd.childStart(g)).foldLeft(0)(math.max)
  private val cur = Array.fill(maxOrder + 1)(new Array[Double](m + 1))
  private val rows = Array.fill(maxOrder + 1)(new Array[Double]((widest + 1) * (m + 1)))
  private val take = Array.fill(maxOrder + 1)(new Array[Int]((widest + 1) * (m + 1)))

  private def drills(slot: Int): Boolean = depth(slot) < maxOrder

  private def solve(id: Int): Array[Double] = {
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
    // over that attribute's active children.
    if (drills(slot)) {
      val cur = this.cur(depth(slot))
      var g = dd.groupStart(slot)
      while (g < dd.groupStart(slot + 1)) {
        java.util.Arrays.fill(cur, 0.0)
        var c = dd.childStart(g)
        while (c < dd.childStart(g + 1)) {
          val childId = dd.childIds(c)
          if (active(childId)) {
            val child = solve(childId)
            var q = m
            while (q >= 1) {
              var w = 1
              var best = cur(q)
              while (w <= q) {
                val v = cur(q - w) + child(w)
                if (v > best) best = v
                w += 1
              }
              cur(q) = best
              q -= 1
            }
          }
          c += 1
        }
        var q = 1
        while (q <= m) { if (cur(q) > out(q)) out(q) = cur(q); q += 1 }
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
    * explanation ids (scores are already memoized, so this is cheap).
    */
  private def backtrack(id: Int, q: Int): Unit = {
    if (q == 0) return
    val target = solve(id)(q)
    if (target <= 0.0) return
    if (solve(id)(q - 1) == target) { backtrack(id, q - 1); return }
    if (id >= 0 && cube.gamma(id, seg) == target) { selected(nSelected) = id; nSelected += 1; return }
    val slot = id + 1
    if (drills(slot)) {
      // rows(ci)(w) and take(ci)(w) at ci·(m + 1) + w.
      val rows = this.rows(depth(slot))
      val take = this.take(depth(slot))
      val stride = m + 1
      var g = dd.groupStart(slot)
      while (g < dd.groupStart(slot + 1)) {
        // Recompute this attribute's knapsack with backtrack pointers; an
        // inactive child scores zero, so it never takes quota.
        val from = dd.childStart(g)
        val kids = dd.childStart(g + 1) - from
        java.util.Arrays.fill(rows, 0, q + 1, 0.0)
        var ci = 0
        while (ci < kids) {
          val childId = dd.childIds(from + ci)
          val child = if (active(childId)) solve(childId) else zeros
          val row = ci * stride
          var w = 0
          while (w <= q) {
            var best = rows(row + w); var bw = 0
            var u = 1
            while (u <= w) {
              val v = rows(row + w - u) + child(u)
              if (v > best) { best = v; bw = u }
              u += 1
            }
            rows(row + stride + w) = best; take(row + stride + w) = bw
            w += 1
          }
          ci += 1
        }
        if (rows(kids * stride + q) == target) {
          var w = q; ci = kids
          while (ci > 0) {
            val u = take(ci * stride + w)
            if (u > 0) backtrack(dd.childIds(from + ci - 1), u)
            w -= u; ci -= 1
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
    * γ descending, with the Best[0..m] score vector (Definition 3.5 / Eq. 12).
    */
  def topIds(segment: Segment): TopIds = topIds(segment, all)

  /** [[topIds]] over only the explanations marked in `active` (O1's
    * restricted input): the same answer as CA on the sub-cube of the marked
    * ids. `active` must be closed under sub-conjunctions, as
    * [[ExplCube.markWithAncestors]] leaves it.
    */
  def topIds(segment: Segment, active: Array[Boolean]): TopIds = {
    require(active.length == eps, "mask must cover every explanation")
    seg = segment
    this.active = active
    version += 1
    val best = solve(-1).clone()
    nSelected = 0
    backtrack(-1, m)
    // A stable insertion sort of the at most m selected ids.
    val ranked = java.util.Arrays.copyOf(selected, nSelected)
    var r = 1
    while (r < ranked.length) {
      val id = ranked(r)
      var p = r
      while (p > 0 && ranksBefore(id, ranked(p - 1))) { ranked(p) = ranked(p - 1); p -= 1 }
      ranked(p) = id
      r += 1
    }
    val taus = new Array[Int](ranked.length)
    r = 0
    while (r < ranked.length) { taus(r) = cube.tau(ranked(r), segment); r += 1 }
    TopIds(segment, ranked, taus, best)
  }
}

