package repro.core

/** Optimization O1 — guess-and-verify (Section 5.3.1).
  *
  * Instead of feeding all ε candidate explanations to the CA algorithm, run
  * CA on only the m̄ explanations with the highest diff score γ (plus their
  * drill-down ancestors for connectivity), then certify optimality with the
  * Eq. 12 sufficient condition:
  *
  *   Best[m] ≥ Best[m'] + Σ_{1≤j≤m−m'} γ(E_{r_{m̄+j}})   ∀ 0 ≤ m' < m
  *
  * Any true solution splits into explanations ranked ≤ m̄ (its class-1 part
  * is upper-bounded by Best[m'], the restricted CA optimum) and explanations
  * ranked > m̄ (upper-bounded by the next m−m' scores in γ order), so when
  * the condition holds the restricted answer is globally optimal. On failure
  * m̄ doubles (Figure 9); at m̄ ≥ ε the run is the unrestricted CA and
  * trivially optimal. Results therefore always match the vanilla CA's score.
  */
final class GuessVerify(val cube: ExplCube, val m: Int, val maxOrder: Int = 3, m0: Int = -1) {
  private val initialMBar = if (m0 > 0) m0 else 10 * m
  private val eps = cube.epsilon

  /** Number of CA invocations performed (for latency accounting). */
  var caRuns: Long = 0L
  /** Largest m̄ any segment needed (diagnostics). */
  var maxMBarUsed: Int = 0

  private val ca = new CascadingAnalysts(cube, m, maxOrder)
  private val gammas = new Array[Double](eps)
  private val active = new Array[Boolean](eps)

  /** Top-`k` explanation ids by γ, descending — bounded min-heap selection
    * so a segment costs O(ε log k), not a full ε log ε sort.
    */
  private def topByGamma(k: Int): Array[Int] = {
    val cap = math.min(k, eps)
    val hg = new Array[Double](cap) // heap of gammas (min-heap)
    val hi = new Array[Int](cap)
    var size = 0
    def swap(a: Int, b: Int): Unit = {
      val tg = hg(a); hg(a) = hg(b); hg(b) = tg
      val ti = hi(a); hi(a) = hi(b); hi(b) = ti
    }
    def siftUp(c0: Int): Unit = {
      var c = c0
      while (c > 0 && hg((c - 1) / 2) > hg(c)) { swap(c, (c - 1) / 2); c = (c - 1) / 2 }
    }
    def siftDown(): Unit = {
      var c = 0
      var done = false
      while (!done) {
        val l = 2 * c + 1; val r = 2 * c + 2
        var s = c
        if (l < size && hg(l) < hg(s)) s = l
        if (r < size && hg(r) < hg(s)) s = r
        if (s == c) done = true
        else { swap(s, c); c = s }
      }
    }
    var id = 0
    while (id < eps) {
      val g = gammas(id)
      if (size < cap) { hg(size) = g; hi(size) = id; size += 1; siftUp(size - 1) }
      else if (g > hg(0)) { hg(0) = g; hi(0) = id; siftDown() }
      id += 1
    }
    // extract ascending into the tail: γ descending
    val out = new Array[Int](size)
    var s = size
    while (s > 0) {
      out(s - 1) = hi(0)
      s -= 1
      hg(0) = hg(s); hi(0) = hi(s); size = s
      siftDown()
    }
    out
  }

  /** Top-m via guess-and-verify; equal (in score) to the vanilla CA. Each
    * guess runs the one CA with only the top-m̄ ids by γ and their ancestors active.
    */
  def topIds(seg: Segment): TopIds = {
    var id = 0
    while (id < eps) { gammas(id) = cube.gamma(id, seg); id += 1 }
    var mBar = math.min(initialMBar, eps)
    while (true) {
      caRuns += 1
      if (mBar >= eps) {
        maxMBarUsed = math.max(maxMBarUsed, eps)
        return ca.topIds(seg)
      }
      val order = topByGamma(mBar + m) // m̄ actives + the certificate tail
      java.util.Arrays.fill(active, false)
      var r = 0
      while (r < mBar) { cube.markWithAncestors(order(r), active); r += 1 }
      val res = ca.topIds(seg, active)
      // Eq. 12 certificate over the γ-sorted tail beyond rank m̄. Both sides
      // are sums of at most m γ values; the slack, relative to the bound,
      // covers their rounding at any scale of the measure.
      var ok = true
      var tailSum = 0.0
      var mp = m - 1
      while (mp >= 0 && ok) {
        val tailRank = mBar + (m - 1 - mp)
        tailSum += (if (tailRank < order.length) gammas(order(tailRank)) else 0.0)
        val bound = res.best(mp) + tailSum
        if (res.best(m) + 4 * m * GuessVerify.Roundoff * bound < bound) ok = false
        mp -= 1
      }
      if (ok) {
        maxMBarUsed = math.max(maxMBarUsed, mBar)
        return res
      }
      mBar = math.min(mBar * 2, eps)
    }
    throw new IllegalStateException("unreachable")
  }
}

object GuessVerify {
  /** Unit roundoff u = 2⁻⁵³ of a double. */
  private val Roundoff = math.ulp(1.0) / 2
}
