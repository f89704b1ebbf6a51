package repro.eval

import repro.core._
import repro.synth.{RealWorldSim, SyntheticGen}
import repro.baselines.{BottomUp, Fluss, NNSegment}

/** Shared harnesses behind the evaluation benches and the spark-submit jobs:
  * each function computes one paper table/figure's numbers and returns both a
  * printable table and the structured results the bench suites assert on.
  */
object Benches {

  // ------------------------------------------------------------- Tables 3-5

  final case class RealWorldRun(
      sim: RealWorldSim.Sim,
      result: TSExplain.Result,
      rendered: String,
      /** interior-cut distance to the designed ground truth, % */
      cutDistancePercent: Double,
      /** fraction of (segment, rank) cells matching the paper's table, using
        * the best alignment of our segments to the designed ones
        */
      topMatchFraction: Double,
  )

  /** Run TSExplain on a simulated real-world dataset and diff the output
    * against the paper's published table (carried in `sim.expected`).
    */
  def runRealWorld(sim: RealWorldSim.Sim, cfg: TSConfig): RealWorldRun = {
    val res = TSExplain.explain(sim.cube, cfg)
    val e = res.explanation
    val rendered = renderCanonical(res.cube, e)
    val dist =
      if (sim.truthCuts.isEmpty) Double.NaN
      else Metrics.distancePercent(sim.truthCuts, e.scheme.interior, sim.cube.n)
    val frac = if (sim.expected.isEmpty) Double.NaN else topMatch(sim, res)
    RealWorldRun(sim, res, rendered, dist, frac)
  }

  /** Render with canonical (deduplicated) explanation names. */
  def renderCanonical(cube: ExplCube, e: Explanation): String = {
    val sb = new StringBuilder
    sb ++= f"K=${e.scheme.k} totalVariance=${e.totalVariance}%.4f\n"
    sb ++= "Segment | Top-1 Expl | Top-2 Expl | Top-3 Expl\n"
    for ((seg, top) <- e.perSegment) {
      val cells = top.ranked.map { r =>
        val name = cube.canonicalExpl(cube.idOf(r.expl)).toString
        s"$name ${if (r.tau >= 0) "+" else "-"}"
      }
      sb ++= s"${cube.times(seg.i)} ~ ${cube.times(seg.j)} | ${cells.padTo(3, "—").mkString(" | ")}\n"
    }
    sb.result()
  }

  /** Fraction of the paper's (segment, rank) → (explanation, effect) cells
    * that our output reproduces, aligning each designed segment to the output
    * segment whose midpoint falls closest.
    */
  private def topMatch(sim: RealWorldSim.Sim, res: TSExplain.Result): Double = {
    val cube = res.cube
    val bounds = 0 +: sim.truthCuts :+ (sim.cube.n - 1)
    val designed = bounds.sliding(2).map { case Vector(a, b) => Segment(a, b) }.toVector
    val got = res.explanation.perSegment
    var hit = 0
    var totalCells = 0
    for ((dseg, want) <- designed.zip(sim.expected)) {
      val mid = (dseg.i + dseg.j) / 2.0
      val (_, top) = got.minBy { case (s, _) => math.abs((s.i + s.j) / 2.0 - mid) }
      val gotCells = top.ranked.map(r =>
        (cube.canonicalExpl(cube.idOf(r.expl)).toString, if (r.tau >= 0) 1 else -1))
      for ((cell, rank) <- want.zipWithIndex) {
        totalCells += 1
        if (rank < gotCells.size && gotCells(rank) == cell) hit += 1
      }
    }
    hit.toDouble / totalCells
  }

  // --------------------------------------------------------------- Table 6

  final case class StatsRow(dataset: String, epsilon: Int, filteredEpsilon: Int, n: Int)

  def table6(sims: Seq[RealWorldSim.Sim], dedupForEps: Boolean = true): Seq[StatsRow] =
    sims.map { sim =>
      val eps = if (dedupForEps) sim.cube.dedupIdenticalSeries.epsilon else sim.cube.epsilon
      val feps =
        if (dedupForEps) sim.cube.filtered(0.001).dedupIdenticalSeries.epsilon
        else sim.cube.filtered(0.001).epsilon
      StatsRow(sim.name, eps, feps, sim.cube.n)
    }

  // --------------------------------------------------------------- Table 7

  final case class QualityRow(dataset: String, varianceVanilla: Double, varianceOpt: Double,
      kVanilla: Int, kOpt: Int)

  /** Total variance of the output segmentation, Vanilla vs O1+O2 (both with
    * the elbow-selected K, as in §7.5.1 where K is unspecified).
    */
  def table7(sim: RealWorldSim.Sim, smooth: Option[Int] = None): QualityRow = {
    val vanilla = TSExplain.explain(sim.cube, TSConfig(smoothWindow = smooth))
    val opt = TSExplain.explain(sim.cube, TSConfig(smoothWindow = smooth).withAllOpts)
    QualityRow(sim.name, vanilla.explanation.totalVariance, opt.explanation.totalVariance,
      vanilla.explanation.scheme.k, opt.explanation.scheme.k)
  }

  // ------------------------------------------------- Fig 6 (metric ranking)

  final case class MetricRankRow(snr: Double, avgRankByMetric: Map[String, Double])

  /** §4.2.2: for each dataset, rank the 8 variance metrics by how well the
    * ground-truth segmentation scores against `samples` random schemes; then
    * average each metric's rank (1 = best) per SNR level.
    */
  def fig6(datasetsPerSnr: Int, snrs: Seq[Double], samples: Int, n: Int = 100): Seq[MetricRankRow] = {
    val corpus = SyntheticGen.corpus(datasetsPerSnr, snrs, n)
    val rows = corpus.zipWithIndex.map { case ((snr, ds), di) =>
      // One dataset's top lists, solved on first use and shared by all 8
      // metrics, indexed i·n + j.
      val ca = new CascadingAnalysts(ds.cube, 3)
      val tops = new Array[TopIds](ds.cube.n * ds.cube.n)
      val top: Segment => TopIds = { s =>
        val c = s.i * ds.cube.n + s.j
        if (tops(c) == null) tops(c) = ca.topIds(s)
        tops(c)
      }
      val gtRanks = VarianceMetric.all.map { metric =>
        val costs = new SegmentCosts(ds.cube, metric, top)
        metric.name -> Metrics.groundTruthRank(costs, ds.truthScheme(ds.cube.n), samples,
          seed = (snr * 1000).toLong + 7919L * di).toDouble
      }
      // rank the metrics 1..8 by their ground-truth rank; min-rank ties so a
      // clean dataset where every metric puts the truth first reads "all 1st"
      val metricRanks = Metrics.ranksMin(gtRanks.map(_._2))
      snr -> gtRanks.map(_._1).zip(metricRanks).toMap
    }
    snrs.map { snr =>
      val rs = rows.filter(_._1 == snr).map(_._2)
      MetricRankRow(snr,
        VarianceMetric.all.map(m => m.name -> rs.map(_(m.name)).sum / rs.size).toMap)
    }
  }

  // --------------------------------------------- Fig 10 (distance percent)

  final case class EffectivenessRow(snr: Double, avgDistByMethod: Map[String, Double])

  val methodNames = Vector("TSExplain", "Bottom-Up", "FLUSS", "NNSegment")

  /** §7.3: distance-percent of TSExplain and the three explanation-agnostic
    * baselines against the planted ground truth, at the oracle K.
    */
  def fig10(datasetsPerSnr: Int, snrs: Seq[Double], n: Int = 100,
      flussW: Int = 10, nnW: Int = 10): Seq[EffectivenessRow] = {
    val corpus = SyntheticGen.corpus(datasetsPerSnr, snrs, n)
    val rows = corpus.map { case (snr, ds) =>
      val k = ds.k
      val ts = TSExplain.explain(ds.cube, TSConfig(fixedK = Some(k))).explanation.scheme.interior
      val bu = BottomUp.segment(ds.cube.total, k).slice(1, k)
      val fl = Fluss.segment(ds.cube.total, k, flussW).slice(1, k)
      val nn = NNSegment.segment(ds.cube.total, k, nnW).slice(1, k)
      val d = Map(
        "TSExplain" -> Metrics.distancePercent(ds.truthCuts, ts, n),
        "Bottom-Up" -> Metrics.distancePercent(ds.truthCuts, bu.toVector, n),
        "FLUSS" -> Metrics.distancePercent(ds.truthCuts, fl.toVector, n),
        "NNSegment" -> Metrics.distancePercent(ds.truthCuts, nn.toVector, n),
      )
      snr -> d
    }
    snrs.map { snr =>
      val rs = rows.filter(_._1 == snr).map(_._2)
      EffectivenessRow(snr, methodNames.map(m => m -> rs.map(_(m)).sum / rs.size).toMap)
    }
  }

  // --------------------------------------------- Fig 15/16 (latency study)

  final case class LatencyRow(dataset: String, variant: String, timings: Timings)

  /** Latency breakdown per optimization variant (Fig. 15): Vanilla,
    * w/filter, O1 (filter + guess-and-verify), O2 (filter + sketching),
    * O1+O2.
    */
  def latencyBreakdown(sim: RealWorldSim.Sim): Seq[LatencyRow] = {
    val variants: Seq[(String, TSConfig)] = Seq(
      "Vanilla" -> TSConfig(),
      "w filter" -> TSConfig(filterRatio = Some(0.001)),
      "O1" -> TSConfig(filterRatio = Some(0.001), guessVerify = true),
      "O2" -> TSConfig(filterRatio = Some(0.001), sketch = true),
      "O1+O2" -> TSConfig(filterRatio = Some(0.001), guessVerify = true, sketch = true),
    )
    variants.map { case (name, cfg) => LatencyRow(sim.name, name, TSExplain.explain(sim.cube, cfg).timings) }
  }

  /** End-to-end comparison against the baselines (Fig. 16): the baselines
    * segment explanation-agnostically, then the CA module is run once per
    * output segment to attach explanations; K is TSExplain's elbow choice.
    */
  final case class E2ERow(dataset: String, method: String, segmentMs: Double, explainMs: Double)

  def endToEnd(sim: RealWorldSim.Sim): Seq[E2ERow] = {
    val opt = TSExplain.explain(sim.cube, TSConfig().withAllOpts)
    val k = opt.explanation.scheme.k
    def timed[A](f: => A): (A, Double) = {
      val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1e6)
    }
    def explainScheme(cuts: Vector[Int]): Double = {
      val ca = new CascadingAnalysts(sim.cube, 3)
      timed(cuts.sliding(2).foreach { case Vector(a, b) => ca.topIds(Segment(a, b)) })._2
    }
    val (vanilla, vanillaMs) = timed(TSExplain.explain(sim.cube, TSConfig(fixedK = Some(k))))
    val (optRes, optMs) = timed(TSExplain.explain(sim.cube, TSConfig(fixedK = Some(k)).withAllOpts))
    val (bu, buMs) = timed(BottomUp.segment(sim.cube.total, k))
    val w = math.max(4, sim.cube.n / 25)
    val (fl, flMs) = timed(Fluss.segment(sim.cube.total, k, w))
    val (nn, nnMs) = timed(NNSegment.segment(sim.cube.total, k, w))
    Seq(
      E2ERow(sim.name, "TSExplain(Vanilla)", vanillaMs, 0.0),
      E2ERow(sim.name, "TSExplain(O1+O2)", optMs, 0.0),
      E2ERow(sim.name, "Bottom-Up", buMs, explainScheme(bu)),
      E2ERow(sim.name, "FLUSS", flMs, explainScheme(fl)),
      E2ERow(sim.name, "NNSegment", nnMs, explainScheme(nn)),
    )
  }

  // -------------------------------------------------- Fig 17 (scalability)

  /** `optAllocMb`: the MB the O1+O2 query allocated, over all threads. */
  final case class ScaleRow(n: Int, vanillaMs: Option[Double], optMs: Double, optAllocMb: Double)

  /** Bytes allocated so far by the JVM's live threads; a thread that ends
    * takes its count with it.
    */
  private def allocatedBytes(): Long = {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    mx.getThreadAllocatedBytes(mx.getAllThreadIds).iterator.filter(_ > 0).sum
  }

  def scalability(lengths: Seq[Int], vanillaCap: Int): Seq[ScaleRow] =
    lengths.map { n =>
      val ds = SyntheticGen.generate(n = n, snrDb = 35, seed = 1234 + n)
      def run(cfg: TSConfig): (Double, Double) = {
        val (t0, b0) = (System.nanoTime(), allocatedBytes())
        TSExplain.explain(ds.cube, cfg)
        ((System.nanoTime() - t0) / 1e6, (allocatedBytes() - b0) / 1e6)
      }
      val v = if (n <= vanillaCap) Some(run(TSConfig())._1) else None
      val (ms, mb) = run(TSConfig(filterRatio = Some(0.001)).withAllOpts)
      ScaleRow(n, v, ms, mb)
    }

  // ---------------------------------------------------------- formatting

  def fmtTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString(" | ")
    (line(header) +: line(header.map("-" * _.length)) +: rows.map(line)).mkString("\n")
  }
}
