package perfbench

import repro.core._
import repro.eval.Benches
import repro.synth.{RealWorldSim, SyntheticGen}
import scala.util.Random

/** Self-tests of the benchmark: the answer check catches small corruptions,
  * the traced recomposition answers exactly as `TSExplain.explain` does, and
  * a non-default seed gives a different input that still passes the check.
  * Exits non-zero when any test fails.
  */
object SelfTest {

  private var failures = 0

  private def check(name: String)(ok: => Boolean): Unit = {
    val passed = try ok catch { case e: Exception => println(s"  $e"); false }
    if (!passed) failures += 1
    println(s"${if (passed) "PASS" else "FAIL"} $name")
  }

  /** A cube over four attributes with five values each, large enough (ε > 200)
    * that O1 builds sub-cubes rather than delegating to the full CA.
    */
  private def randomCube(seed: Long, n: Int): ExplCube = {
    val rnd = new Random(seed)
    val attrs = Seq("a", "b", "c", "d")
    val slices = Vector.fill(60)(attrs.map(a => a -> s"${a}${rnd.nextInt(5)}").toMap).distinct
    val trends = slices.map(_ => (rnd.nextDouble() * 50, rnd.nextGaussian() * 3))
    val records = for ((s, (base, slope)) <- slices.zip(trends); t <- 0 until n)
      yield (s, t, math.max(0.0, base + slope * t + rnd.nextGaussian()))
    ExplCube.fromRecords(attrs, (0 until n).map(_.toString), records)
  }

  def main(args: Array[String]): Unit = {
    // 1. The answer check.
    val small = SyntheticGen.generate(n = 100, snrDb = 35, seed = 1).cube
    val res = TSExplain.explain(small, TSConfig())
    val ref = Answer.of(res.cube, res.explanation)
    val seg = ref.cells.indexWhere(_.size >= 2)
    val swapped = ref.copy(cells = ref.cells.updated(seg, ref.cells(seg).updated(0, ref.cells(seg)(1)).updated(1, ref.cells(seg)(0))))
    val flipped = ref.copy(cells = ref.cells.updated(seg, ref.cells(seg).updated(0, (ref.cells(seg)(0)._1, -ref.cells(seg)(0)._2))))
    val moved = ref.copy(cuts = ref.cuts.updated(1, ref.cuts(1) + 1))
    check("an identical answer passes")(Answer.diff(ref, ref).isEmpty)
    check("two swapped cells fail")(ref.k > 1 && seg >= 0 && Answer.diff(swapped, ref).isDefined)
    check("a flipped effect fails")(Answer.diff(flipped, ref).isDefined)
    check("a moved cut fails")(Answer.diff(moved, ref).isDefined)
    check("a variance off by 1e-6 relative fails")(
      Answer.diff(ref.copy(totalVariance = ref.totalVariance * (1 + 1e-6)), ref).isDefined)
    check("a variance off by 1e-12 relative passes")(
      Answer.diff(ref.copy(totalVariance = ref.totalVariance * (1 + 1e-12)), ref).isEmpty)
    check("the harness counts a query that differs from the reference as failed") {
      val out = TracedExplain.Output(res.cube, res.explanation, "")
      val good = new Main.Checker(ref)
      val bad = new Main.Checker(moved)
      good.run("self-test")(out).isDefined && good.failed == 0 &&
        bad.run("self-test")(out).isEmpty && bad.failed == 1 && bad.attempted == 1
    }

    // 2. The traced recomposition.
    val cubes = Seq(
      "synthetic n=120" -> SyntheticGen.generate(n = 120, snrDb = 30, seed = 3).cube,
      "random 4-attribute (ε > 200, so O1 builds sub-cubes)" -> randomCube(5, 40),
      "covid slice" -> RealWorldSim.covidDaily().cube.slice(0, 90),
    )
    val configs = Seq(
      "vanilla" -> TSConfig(),
      "filter+O1" -> TSConfig(filterRatio = Some(0.001), guessVerify = true),
      "filter+O1+O2" -> TSConfig(filterRatio = Some(0.001)).withAllOpts,
      "smoothed" -> TSConfig(smoothWindow = Some(5)),
      "fixed K" -> TSConfig(fixedK = Some(3), guessVerify = true),
    )
    for ((cn, cube) <- cubes; (fn, cfg) <- configs) check(s"traced = untraced: $cn, $fn") {
      val plain = TSExplain.explain(cube, cfg)
      val tr = new Tracer
      val traced = TracedExplain.run(cube, cfg, tr)
      Answer.diff(Answer.of(plain.cube, plain.explanation), Answer.of(traced.cube, traced.explanation)).isEmpty &&
        traced.explanation == plain.explanation &&
        traced.table == Benches.renderCanonical(plain.cube, plain.explanation) &&
        tr.counters("topTable.segments") > 0 && tr.counters("costMatrix.lookups") > 0
    }

    // 3. Another seed: a different input, and still no failed query.
    for ((name, seed, other) <- Seq(("liquor", 12L, 11L), ("synthetic", 2035L, 2034L))) {
      check(s"$name seed $seed differs from seed $other and passes the check") {
        val input = (s: Long) =>
          if (name == "liquor") RealWorldSim.liquor(s).cube
          else SyntheticGen.generate(n = 800, snrDb = 35, seed = s).cube
        val differs = !input(seed).series.map(_.toSeq).sameElements(input(other).series.map(_.toSeq))
        val wl = Workloads.byName(name)
        wl.setUp(seed)
        val checker = new Main.Checker(wl.reference())
        checker.run(name)(wl.query())
        checker.run(s"$name traced")(wl.tracedQuery(new Tracer))
        differs && checker.attempted == 2 && checker.failed == 0
      }
    }

    println(s"${if (failures == 0) "all self-tests passed" else s"$failures self-test(s) FAILED"}")
    if (failures > 0) sys.exit(1)
  }
}
