package repro.tools

import java.io.PrintStream
import java.lang.Double.toHexString
import repro.core._
import repro.synth.{RealWorldSim, SyntheticGen}

/** Prints every answer of a fixed set of explains with doubles in hex, so two
  * builds that should agree bit for bit can be compared with `diff`:
  *
  * {{{
  * sbt "Test/runMain repro.tools.AnswerDump answers.txt"
  * }}}
  *
  * Without an argument it writes to stdout. Each explain prints K, the cuts,
  * the candidate positions, each chosen segment's ranked list (explanation,
  * γ, τ) and Best vector, the total variance and the K-variance curve. The
  * set: covid daily and total, S&P, liquor, synthetic n = 200 and 800 and a
  * 2- and a 5-point slice of covid daily under vanilla, filter, O1, O2,
  * filter+O2, all optimizations, fixed K (with and without O2), smoothed,
  * kMax 1, 2 and 100,000 (1 and 100,000 also with O2) and the 7 other
  * metrics (with O1; O2 for synthetic 200, all optimizations for synthetic
  * 800); and synthetic n = 3,200 under filter+O2, all optimizations, and all
  * optimizations with kMax 100,000.
  *
  * It then prints one SHA-256 digest of every segment's top list (ids, τs
  * and Best bits) per cube and solver: covid daily smoothed and total, S&P,
  * raw and filtered liquor and synthetic n = 800, each under CA with m = 3,
  * β̄ = 3 and m = 5, β̄ = 2 and under O1, one solver instance per pair.
  */
object AnswerDump {

  private val filter = TSConfig(filterRatio = Some(0.001))
  private val allOpts = filter.withAllOpts

  private val configs: Seq[(String, TSConfig)] = Seq(
    "vanilla" -> TSConfig(),
    "filter" -> filter,
    "O1" -> TSConfig(guessVerify = true),
    "O2" -> TSConfig(sketch = true),
    "filter+O2" -> filter.copy(sketch = true),
    "all-opts" -> allOpts,
    "fixedK5" -> TSConfig(fixedK = Some(5)),
    "fixedK5+O2" -> TSConfig(fixedK = Some(5), sketch = true),
    "smoothed5" -> TSConfig(smoothWindow = Some(5)),
    "kMax1" -> TSConfig(kMax = 1),
    "kMax1+O2" -> TSConfig(kMax = 1, sketch = true),
    "kMax2" -> TSConfig(kMax = 2),
    "kMax100000" -> TSConfig(kMax = 100000),
    "kMax100000+O2" -> TSConfig(kMax = 100000, sketch = true),
  )

  private def metricBase(dataset: String): TSConfig = dataset match {
    case "synthetic-200" => TSConfig(sketch = true)
    case "synthetic-800" => allOpts
    case _ => TSConfig(guessVerify = true)
  }

  private def hex(v: Double): String = toHexString(v)

  def dump(out: PrintStream, name: String, cube: ExplCube, cfg: TSConfig): Unit = {
    val res = TSExplain.explain(cube, cfg)
    val e = res.explanation
    out.println(s"== $name")
    out.println(s"K ${e.scheme.k}")
    out.println(s"cuts ${e.scheme.cuts.mkString(",")}")
    out.println(s"candidates ${res.candidates.mkString(",")}")
    for ((seg, top) <- e.perSegment) {
      out.println(s"segment [${seg.i},${seg.j}] best ${top.best.map(hex).mkString(",")}")
      for (r <- top.ranked) out.println(s"  ${r.expl} ${hex(r.gamma)} ${r.tau}")
    }
    out.println(s"total ${hex(e.totalVariance)}")
    out.println(s"curve ${e.kVarianceCurve.map { case (k, v) => s"$k:${hex(v)}" }.mkString(",")}")
  }

  /** The digest of `solve`'s list for every segment [i, j] of `cube`, in
    * (i, j) order.
    */
  def digest(out: PrintStream, name: String, cube: ExplCube, solve: Segment => TopIds): Unit = {
    val sha = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    def put(v: Long): Unit = { buf.clear(); buf.putLong(v); sha.update(buf.array) }
    var segments = 0
    for (i <- 0 until cube.n; j <- i + 1 until cube.n) {
      val t = solve(Segment(i, j))
      put(t.size)
      for (r <- 0 until t.size) { put(t.ids(r)); put(t.taus(r)) }
      t.best.foreach(b => put(java.lang.Double.doubleToRawLongBits(b)))
      segments += 1
    }
    out.println(s"digest $name segments $segments ${sha.digest.map(b => f"$b%02x").mkString}")
  }

  def main(args: Array[String]): Unit = {
    val out = args.headOption.fold(System.out)(path => new PrintStream(path, "UTF-8"))
    val daily = RealWorldSim.covidDaily().cube
    val datasets: Seq[(String, ExplCube)] = Seq(
      "covid-daily" -> daily,
      "covid-total" -> RealWorldSim.covidTotal().cube,
      "sp500" -> RealWorldSim.sp500().cube,
      "liquor" -> RealWorldSim.liquor().cube,
      "synthetic-200" -> SyntheticGen.generate(n = 200, snrDb = 35, seed = 200).cube,
      "synthetic-800" -> SyntheticGen.generate(n = 800, snrDb = 35, seed = 800).cube,
      "covid-daily-2pt" -> daily.slice(40, 41),
      "covid-daily-5pt" -> daily.slice(40, 44),
    )
    for ((dataset, cube) <- datasets) {
      for ((label, cfg) <- configs) dump(out, s"$dataset / $label", cube, cfg)
      for (metric <- VarianceMetric.all if metric != VarianceMetric.Tse)
        dump(out, s"$dataset / metric ${metric.name}", cube, metricBase(dataset).copy(metric = metric))
    }
    val big = SyntheticGen.generate(n = 3200, snrDb = 35, seed = 3200).cube
    for ((label, cfg) <- Seq("filter+O2" -> filter.copy(sketch = true), "all-opts" -> allOpts,
        "all-opts kMax100000" -> allOpts.copy(kMax = 100000)))
      dump(out, s"synthetic-3200 / $label", big, cfg)
    val liquor = RealWorldSim.liquor().cube
    val solverCubes: Seq[(String, ExplCube)] = Seq(
      "covid-daily-smoothed5" -> daily.smoothed(5),
      "covid-total" -> RealWorldSim.covidTotal().cube,
      "sp500" -> RealWorldSim.sp500().cube,
      "liquor" -> liquor,
      "liquor-filtered" -> liquor.filtered(0.001),
      "synthetic-800" -> SyntheticGen.generate(n = 800, snrDb = 35, seed = 800).cube,
    )
    for ((dataset, cube) <- solverCubes) {
      digest(out, s"$dataset / CA m3 order3", cube, new CascadingAnalysts(cube, 3, 3).topIds)
      digest(out, s"$dataset / CA m5 order2", cube, new CascadingAnalysts(cube, 5, 2).topIds)
      digest(out, s"$dataset / O1", cube, new GuessVerify(cube, 3, 3).topIds)
    }
    out.flush()
    if (out ne System.out) out.close()
  }
}
