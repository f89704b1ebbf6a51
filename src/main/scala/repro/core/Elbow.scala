package repro.core

/** Elbow-method selection of the optimal K (Section 6).
  *
  * The K-variance curve D(n, K) decreases monotonically in K; the curve is
  * normalized to the unit square and the elbow is the point furthest above
  * the descending diagonal — the kneedle difference-curve maximum for a
  * decreasing curve [40]: K* = argmax_K [(1 − var_norm(K)) − K_norm].
  */
object Elbow {

  /** `curve(k-1)` = total variance at K = k. Returns the selected K ≥ 1: 1
    * for a flat curve, of any length, else the larger K of a 2-point curve.
    */
  def select(curve: Vector[Double]): Int = {
    val kMax = curve.size
    val vMax = curve.head
    val vMin = curve.min
    if (vMax - vMin <= 0) return 1 // flat curve: no gain from cutting at all
    if (kMax <= 2) return kMax
    var bestK = 1
    var bestD = Double.NegativeInfinity
    var k = 1
    while (k <= kMax) {
      val x = (k - 1).toDouble / (kMax - 1)
      val y = (curve(k - 1) - vMin) / (vMax - vMin)
      val d = (1.0 - y) - x
      if (d > bestD + 1e-12) { bestD = d; bestK = k }
      k += 1
    }
    bestK
  }
}
