package repro.eval

import repro.core._
import scala.util.Random

/** Effectiveness metrics of Sections 4.2.2 and 7.3. */
object Metrics {

  /** distance-percent (§7.3): normalized edit distance between a method's
    * interior cut positions and the ground truth's. Both schemes are run at
    * the oracle K so they have the same cut count; cuts are order-aligned and
    * the summed absolute index displacement is normalized by (K−1)·n.
    * Different cut counts (a degenerate baseline output) fall back to an
    * optimal monotone alignment with an n-point penalty per unmatched cut.
    */
  def distancePercent(truth: Vector[Int], pred: Vector[Int], n: Int): Double = {
    val a = truth.sorted
    val b = pred.sorted
    val norm = math.max(1, a.size).toDouble * n
    if (a.isEmpty && b.isEmpty) return 0.0
    if (a.size == b.size) {
      100.0 * a.zip(b).map { case (x, y) => math.abs(x - y) }.sum / norm
    } else {
      // Needleman-Wunsch style monotone alignment, gap penalty n.
      val gap = n.toDouble
      val d = Array.fill(a.size + 1, b.size + 1)(0.0)
      for (i <- 1 to a.size) d(i)(0) = i * gap
      for (j <- 1 to b.size) d(0)(j) = j * gap
      for (i <- 1 to a.size; j <- 1 to b.size)
        d(i)(j) = math.min(
          d(i - 1)(j - 1) + math.abs(a(i - 1) - b(j - 1)),
          math.min(d(i - 1)(j), d(i)(j - 1)) + gap,
        )
      100.0 * d(a.size)(b.size) / norm
    }
  }

  /** Uniformly sample a random K-segmentation of n points: K−1 distinct
    * interior cuts out of positions 1..n−2.
    */
  def randomScheme(n: Int, k: Int, rnd: Random): SegScheme = {
    val interior = scala.collection.mutable.SortedSet.empty[Int]
    while (interior.size < k - 1) interior += 1 + rnd.nextInt(n - 2)
    SegScheme(0 +: interior.toVector :+ (n - 1))
  }

  /** Ground-truth-rank experiment (§4.2.2): among `samples` random schemes at
    * the ground-truth K, the number of schemes whose objective is strictly
    * lower than the ground truth's, plus one (rank 1 = best possible).
    */
  def groundTruthRank(
      costs: SegmentCosts,
      truth: SegScheme,
      samples: Int,
      seed: Long,
  ): Int = {
    val rnd = new Random(seed)
    val n = costs.cube.n
    val truthScore = costs.objective(truth)
    var better = 0
    var s = 0
    while (s < samples) {
      val sc = costs.objective(randomScheme(n, truth.k, rnd))
      if (sc < truthScore - 1e-12) better += 1
      s += 1
    }
    better + 1
  }

  /** Ranks with min-rank (competition) tie handling: tied values share the
    * best rank of the block — so "all metrics rank 1st" when all tie, as the
    * paper reports for SNR = 50 (§4.2.2).
    */
  def ranksMin(values: Seq[Double]): Seq[Double] = {
    val sorted = values.zipWithIndex.sortBy(_._1)
    val out = new Array[Double](values.size)
    var i = 0
    while (i < sorted.size) {
      var j = i
      while (j + 1 < sorted.size && sorted(j + 1)._1 == sorted(i)._1) j += 1
      for (t <- i to j) out(sorted(t)._2) = i + 1.0
      i = j + 1
    }
    out.toSeq
  }
}
