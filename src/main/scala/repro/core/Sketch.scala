package repro.core

/** Optimization O2 — sketching (Section 5.3.2).
  *
  * Phase I selects a sketch S of promising cut positions by running the very
  * same pipeline constrained to segments of length ≤ L (L = min(0.05n, 20)),
  * asking for a |S| = 3n/L segmentation; the cut positions of that fine
  * segmentation become the sketch. Phase II (done by the caller) re-runs the
  * pipeline with cut candidates restricted to S, shrinking the number of
  * considered segments from O(n²) to O(|S|²).
  */
object Sketch {

  def maxSegLen(n: Int): Int = math.max(2, math.min(math.ceil(0.05 * n).toInt, 20))

  def sketchSize(n: Int): Int = math.min(n - 1, math.max(2, (3.0 * n / maxSegLen(n)).toInt))

  /** The sketch from phase I's DP (sorted, endpoints 0 and n−1 always
    * included): the cuts of its largest feasible k ≤ |S| (small k is
    * infeasible under the length cap; the target |S| itself is feasible
    * because |S|·L ≥ 3(n−1)).
    */
  def cuts(phaseI: KSegmentation.DPResult): Vector[Int] = {
    val k = phaseI.curve.lastIndexWhere(_.isFinite) + 1
    require(k >= 1, s"sketch selection found no feasible segmentation among ${phaseI.curve.size} segment counts")
    phaseI.schemes(k - 1).get.cuts
  }
}
