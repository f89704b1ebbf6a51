package perfbench

import repro.core._
import repro.eval.Benches

/** `TSExplain.explain` followed by `Benches.renderCanonical`, recomposed
  * from the public calls of each layer in the order `explain` makes them,
  * with a span around each call. The self-test checks that the result equals
  * the untraced pipeline's, so a change to `explain` that this recomposition
  * does not follow shows up as a failed self-test, not as a wrong trace.
  */
object TracedExplain {

  final case class Output(cube: ExplCube, explanation: Explanation, table: String)

  def run(cube0: ExplCube, cfg: TSConfig, tr: Tracer): Output = {
    val cube = tr.span(Layer.Precompute) {
      val smoothed = cfg.smoothWindow.fold(cube0)(cube0.smoothed)
      cfg.filterRatio.fold(smoothed)(smoothed.filtered)
    }

    // The top-list solver, cached per segment as `explain` caches it; only a
    // cache miss runs the solver, so topTable counts distinct segments.
    val (solve, gv): (Segment => TopIds, Option[GuessVerify]) = tr.span(Layer.TopTable) {
      if (cfg.guessVerify) {
        val g = new GuessVerify(cube, cfg.m, cfg.maxOrder)
        (g.topIds _, Some(g))
      } else (new CascadingAnalysts(cube, cfg.m, cfg.maxOrder).topIds _, None)
    }
    var segments = 0L
    val topCache = new java.util.HashMap[Long, TopIds]()
    val topFn: Segment => TopIds = { seg =>
      val key = (seg.i.toLong << 32) | seg.j.toLong
      val hit = topCache.get(key)
      if (hit != null) hit
      else {
        segments += 1
        val r = tr.span(Layer.TopTable)(solve(seg))
        topCache.put(key, r)
        r
      }
    }

    val costs = tr.span(Layer.CostMatrix)(new SegmentCosts(cube, cfg.metric, topFn))
    val n = cube.n
    val cells = new java.util.BitSet(n * n)
    var lookups = 0L
    val costFn: (Int, Int) => Double = { (i, j) =>
      lookups += 1
      val cell = i * n + j
      val seen = cells.get(cell)
      cells.set(cell)
      // `cost` memoizes every cell, so a repeated lookup is a memo hit that
      // allocates at most a boxed key: time it without the allocation reads.
      tr.span(Layer.CostMatrix, alloc = !seen)(costs.cost(i, j))
    }

    // O2 phase I as `Sketch.select` runs it, but with lookups through costFn.
    val maxSegLen = if (cfg.sketch) Sketch.maxSegLen(n) else 0
    val candidates: Vector[Int] =
      if (cfg.sketch) {
        val res = tr.span(Layer.Sketch)(KSegmentation.dp(
          costFn, (0 until n).toVector, kMax = Sketch.sketchSize(n), maxSegLen = Some(maxSegLen)))
        val k = res.curve.lastIndexWhere(_.isFinite) + 1
        require(k >= 1, s"sketch selection found no feasible segmentation (n=$n, L=$maxSegLen)")
        res.schemes(k - 1).get.cuts
      } else (0 until n).toVector

    val kCap = math.min(cfg.kMax, candidates.size - 1)
    val dpRes = tr.span(Layer.Dp)(KSegmentation.dp(costFn, candidates, kCap))
    val curve = dpRes.curve
    val k = tr.span(Layer.Elbow)(
      cfg.fixedK.map(k0 => math.max(1, math.min(k0, kCap))).getOrElse(Elbow.select(curve)))

    val scheme = dpRes.schemes(k - 1).get
    val explanation = tr.span(Layer.Render) {
      val perSegment = scheme.segments.map(s => s -> CascadingAnalysts.pretty(cube, topFn(s)))
      Explanation(scheme, curve(k - 1), perSegment, curve.zipWithIndex.map { case (v, i) => (i + 1, v) })
    }
    val table = tr.span(Layer.Render)(Benches.renderCanonical(cube, explanation))

    val caRuns = gv.fold(segments)(_.caRuns)
    tr.counters ++= Seq(
      "precompute.eps_in" -> cube0.epsilon.toDouble,
      "precompute.eps_out" -> cube.epsilon.toDouble,
      "topTable.segments" -> segments.toDouble,
      "topTable.ca_runs" -> caRuns.toDouble,
      "topTable.mbar_max" -> gv.fold(cube.epsilon)(_.maxMBarUsed).toDouble,
      "topTable.first_guess_ratio" -> (if (caRuns > 0) segments.toDouble / caRuns else 0.0),
      "costMatrix.lookups" -> lookups.toDouble,
      "costMatrix.cells" -> cells.cardinality().toDouble,
      "sketch.size" -> (if (cfg.sketch) candidates.size else 0).toDouble,
      "sketch.max_seg_len" -> maxSegLen.toDouble,
      "dp.positions" -> candidates.size.toDouble,
      "dp.k_cap" -> kCap.toDouble,
      "elbow.k" -> k.toDouble,
    )
    Output(cube, explanation, table)
  }
}
