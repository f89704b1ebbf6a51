package repro.core

/** Sketch phase I (O2) over every position, with costs read one at a time:
  * the band DP `explain` runs, returning the sketch positions.
  */
object SketchSelect {

  def apply(costs: SegmentCosts): Vector[Int] = {
    val n = costs.cube.n
    Sketch.cuts(KSegmentation.dp(costs.cost, (0 until n).toVector,
      kMax = Sketch.sketchSize(n), maxSegLen = Some(Sketch.maxSegLen(n))))
  }
}
