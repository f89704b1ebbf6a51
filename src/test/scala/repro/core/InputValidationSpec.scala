package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Inputs no run can use are rejected where they enter: `TSConfig` when it
  * is built, `ExplCube` when it is built, `explain` when it is called; each
  * with an `IllegalArgumentException` that names what is wrong.
  */
class InputValidationSpec extends AnyFunSuite {

  def rejected(what: String)(body: => Any): Unit = {
    val e = intercept[IllegalArgumentException](body)
    assert(e.getMessage.contains(what), e.getMessage)
  }

  def cube(n: Int): ExplCube =
    ExplCube.fromSeries(Seq("a"), (0 until n).map(_.toString), Array.tabulate(n)(_.toDouble),
      Seq(Expl.of("a" -> "x") -> Array.tabulate(n)(_.toDouble)))

  test("TSConfig rejects m < 1") {
    rejected("m must be at least 1")(TSConfig(m = 0))
  }

  test("TSConfig rejects kMax < 1") {
    rejected("kMax must be at least 1")(TSConfig(kMax = 0))
  }

  test("TSConfig rejects fixedK < 1 instead of clamping it") {
    rejected("fixedK must be at least 1, got 0")(TSConfig(fixedK = Some(0)))
    rejected("fixedK must be at least 1, got -3")(TSConfig(fixedK = Some(-3)))
  }

  test("TSConfig rejects smoothWindow < 1") {
    rejected("smoothWindow must be at least 1")(TSConfig(smoothWindow = Some(0)))
  }

  test("TSConfig rejects a filterRatio that is not finite or is negative") {
    for (r <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.001))
      rejected("filterRatio must be finite and non-negative")(TSConfig(filterRatio = Some(r)))
    assert(TSConfig(filterRatio = Some(0.0)).filterRatio.contains(0.0))
  }

  test("TSConfig rejects maxOrder < 0") {
    rejected("maxOrder must be at least 0, got -1")(TSConfig(maxOrder = -1))
    assert(TSConfig(maxOrder = 0).maxOrder == 0)
  }

  test("CA rejects an m whose tables outgrow one array before allocating them, naming m, ε and the entries") {
    // ε = 40: at m = 10^8 the memo needs 41 · (10^8 + 1) entries.
    val wide = ExplCube.fromSeries(Seq("a"), (0 until 4).map(_.toString), Array.fill(4)(40.0),
      (0 until 40).map(v => Expl.of("a" -> s"v$v") -> Array.fill(4)(1.0)))
    rejected("m = 2147483647 on ε = 1 explanations needs 4294967296 memo")(new CascadingAnalysts(cube(4), Int.MaxValue))
    rejected("m = 100000000 on ε = 40 explanations needs 4100000041 memo")(new CascadingAnalysts(wide, 100000000))
    rejected("m = 2147483647 on ε = 1")(TSExplain.explain(cube(4), TSConfig(m = Int.MaxValue)))
    rejected("m = 2147483647 on ε = 1")(TSExplain.explain(cube(4), TSConfig(m = Int.MaxValue, guessVerify = true)))
  }

  test("explain rejects a series of fewer than 2 points") {
    for (n <- Seq(0, 1)) rejected(s"got n = $n")(TSExplain.explain(cube(n), TSConfig()))
    assert(TSExplain.explain(cube(2), TSConfig()).explanation.scheme.cuts == Vector(0, 1))
  }

  test("lists longer than 64 explain: m = 65 ranks 65, and m past ε = 70 changes nothing") {
    val rnd = new scala.util.Random(65)
    val n = 12
    val series = (0 until 70).map(v => Expl.of("a" -> f"v$v%02d") -> Array.fill(n)(rnd.nextDouble() * 100))
    val total = Array.tabulate(n)(t => series.map(_._2(t)).sum)
    val wide = ExplCube.fromSeries(Seq("a"), (0 until n).map(_.toString), total, series)
    assert(wide.epsilon == 70)
    val e65 = TSExplain.explain(wide, TSConfig(m = 65)).explanation
    assert(e65.perSegment.forall(_._2.ranked.size == 65))
    val Seq(e70, e500) = Seq(70, 500).map(m => TSExplain.explain(wide, TSConfig(m = m)).explanation)
    assert(e70.perSegment.forall(_._2.ranked.size == 70))
    assert(e500.scheme == e70.scheme && e500.perSegment.map(_._2.ranked) == e70.perSegment.map(_._2.ranked))
    assert(e500.totalVariance == e70.totalVariance)
  }

  test("ExplCube rejects non-finite series values, naming the explanation and time index") {
    for (v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      rejected(s"the series of a=y is not finite at time index 2") {
        ExplCube.fromSeries(Seq("a"), (0 until 4).map(_.toString), Array(1.0, 2.0, 3.0, 4.0),
          Seq(Expl.of("a" -> "x") -> Array(1.0, 2.0, 3.0, 4.0), Expl.of("a" -> "y") -> Array(0.0, 0.0, v, 0.0)))
      }
      rejected("the total series is not finite at time index 1") {
        ExplCube.fromSeries(Seq("a"), (0 until 3).map(_.toString), Array(1.0, v, 3.0), Seq.empty)
      }
    }
    rejected("not finite at time index 0") {
      ExplCube.fromRecords(Seq("a"), Seq("0", "1"), Seq((Map("a" -> "x"), 0, Double.NaN), (Map("a" -> "x"), 1, 1.0)))
    }
  }
}
