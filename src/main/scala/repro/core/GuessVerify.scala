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
final class GuessVerify(val cube: ExplCube, val m: Int, val maxOrder: Int = 3, m0: Int = -1) extends TopSolver {
  private val initialMBar = if (m0 > 0) m0 else 10 * m
  private val eps = cube.epsilon

  /** Number of CA invocations performed (for latency accounting). */
  var caRuns: Long = 0L
  /** Largest m̄ any segment needed (diagnostics). */
  var maxMBarUsed: Int = 0

  private val ca = new CascadingAnalysts(cube, m, maxOrder)
  private val gammas = new Array[Double](eps)
  private val active = new Array[Boolean](eps)

  // The largest list topByGamma is asked for: m̄ + m for the largest guess
  // m̄ < ε, at most ε.
  private val heapCap = {
    var largest = 0
    var mBar = math.min(initialMBar, eps)
    while (mBar < eps) { largest = mBar; mBar = math.min(mBar * 2, eps) }
    if (largest == 0) 0 else math.min(largest + m, eps)
  }
  // A min-heap of (γ, id) holding heapSize entries, and topByGamma's answer
  // in its first orderSize entries; allocated once, reused by every guess.
  private val heapGamma = new Array[Double](heapCap)
  private val heapId = new Array[Int](heapCap)
  private var heapSize = 0
  private val order = new Array[Int](heapCap)
  private var orderSize = 0

  private def swap(a: Int, b: Int): Unit = {
    val tg = heapGamma(a); heapGamma(a) = heapGamma(b); heapGamma(b) = tg
    val ti = heapId(a); heapId(a) = heapId(b); heapId(b) = ti
  }

  private def siftUp(c0: Int): Unit = {
    var c = c0
    while (c > 0 && heapGamma((c - 1) / 2) > heapGamma(c)) { swap(c, (c - 1) / 2); c = (c - 1) / 2 }
  }

  private def siftDown(): Unit = {
    var c = 0
    var done = false
    while (!done) {
      val l = 2 * c + 1; val r = 2 * c + 2
      var s = c
      if (l < heapSize && heapGamma(l) < heapGamma(s)) s = l
      if (r < heapSize && heapGamma(r) < heapGamma(s)) s = r
      if (s == c) done = true
      else { swap(s, c); c = s }
    }
  }

  /** Puts the top-`k` explanation ids by γ, descending, in `order(0 until
    * orderSize)` — bounded min-heap selection so a segment costs
    * O(ε log k), not a full ε log ε sort.
    */
  private def topByGamma(k: Int): Unit = {
    val cap = math.min(k, eps)
    heapSize = 0
    var id = 0
    while (id < eps) {
      val g = gammas(id)
      if (heapSize < cap) { heapGamma(heapSize) = g; heapId(heapSize) = id; heapSize += 1; siftUp(heapSize - 1) }
      else if (g > heapGamma(0)) { heapGamma(0) = g; heapId(0) = id; siftDown() }
      id += 1
    }
    // extract ascending into the tail: γ descending
    orderSize = heapSize
    var s = heapSize
    while (s > 0) {
      order(s - 1) = heapId(0)
      s -= 1
      heapGamma(0) = heapGamma(s); heapId(0) = heapId(s); heapSize = s
      siftDown()
    }
  }

  // The answer is the one CA's last.
  def size: Int = ca.size
  def ids: Array[Int] = ca.ids
  def taus: Array[Int] = ca.taus
  def best: Array[Double] = ca.best

  /** Top-m via guess-and-verify; equal (in score) to the vanilla CA. Each
    * guess runs the one CA with only the top-m̄ ids by γ and their ancestors active.
    */
  def solve(seg: Segment): Unit = {
    var id = 0
    while (id < eps) { gammas(id) = cube.gamma(id, seg); id += 1 }
    var mBar = math.min(initialMBar, eps)
    while (true) {
      caRuns += 1
      if (mBar >= eps) {
        maxMBarUsed = math.max(maxMBarUsed, eps)
        ca.solve(seg)
        return
      }
      topByGamma(mBar + m) // m̄ actives + the certificate tail
      java.util.Arrays.fill(active, false)
      var r = 0
      while (r < mBar) { cube.markWithAncestors(order(r), active); r += 1 }
      ca.solve(seg, active)
      // Eq. 12 certificate over the γ-sorted tail beyond rank m̄. Both sides
      // are sums of at most m γ values; the slack, relative to the bound,
      // covers their rounding at any scale of the measure.
      val best = ca.best
      var ok = true
      var tailSum = 0.0
      var mp = m - 1
      while (mp >= 0 && ok) {
        val tailRank = mBar + (m - 1 - mp)
        tailSum += (if (tailRank < orderSize) gammas(order(tailRank)) else 0.0)
        val bound = best(mp) + tailSum
        if (best(m) + 4 * m * GuessVerify.Roundoff * bound < bound) ok = false
        mp -= 1
      }
      if (ok) {
        maxMBarUsed = math.max(maxMBarUsed, mBar)
        return
      }
      mBar = math.min(mBar * 2, eps)
    }
  }
}

object GuessVerify {
  /** Unit roundoff u = 2⁻⁵³ of a double. */
  private val Roundoff = math.ulp(1.0) / 2
}
