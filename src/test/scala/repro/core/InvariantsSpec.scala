package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Randomized cross-cutting invariants over the core pipeline pieces —
  * seeded loops, and scalacheck properties run through `Test.check`
  * (scalatest's scalacheck bridge is not on the classpath).
  */
class InvariantsSpec extends AnyFunSuite {

  def randomCube(rnd: Random, n: Int, attrs: Int = 2, vals: Int = 3): ExplCube = {
    val attrNames = (0 until attrs).map(i => s"A$i")
    val combos = attrNames
      .map(a => (0 until vals).map(v => a -> s"v$v"))
      .foldLeft(Seq(Seq.empty[(String, String)]))((acc, col) => acc.flatMap(p => col.map(p :+ _)))
    val recs = for (c <- combos; t <- 0 until n) yield (c.toMap, t, rnd.nextDouble() * 20 - 10)
    ExplCube.fromRecords(attrNames, (0 until n).map(_.toString), recs)
  }

  test("filter is idempotent") {
    val rnd = new Random(1)
    for (_ <- 1 to 10) {
      val c = randomCube(rnd, 6)
      val once = c.filtered(0.05)
      val twice = once.filtered(0.05)
      assert(once.expls == twice.expls)
    }
  }

  test("filter with ratio 0 keeps everything") {
    val rnd = new Random(2)
    val c = randomCube(rnd, 5)
    assert(c.filtered(0.0).epsilon == c.epsilon)
  }

  test("smoothing preserves the series mean up to edge effects") {
    val rnd = new Random(3)
    val c = randomCube(rnd, 30)
    val s = c.smoothed(5)
    val a = c.total.sum / c.n
    val b = s.total.sum / s.n
    assert(math.abs(a - b) < math.abs(a) * 0.2 + 1.0)
  }

  test("smoothing never widens the value range") {
    val rnd = new Random(4)
    val c = randomCube(rnd, 25)
    val s = c.smoothed(7)
    assert(s.total.max <= c.total.max + 1e-9)
    assert(s.total.min >= c.total.min - 1e-9)
  }

  test("gamma is sub-additive across a split point only for aligned effects") {
    // |s(j)-s(i)| ≤ |s(k)-s(i)| + |s(j)-s(k)| always (triangle inequality)
    val rnd = new Random(5)
    val c = randomCube(rnd, 10)
    for (id <- 0 until c.epsilon; i <- 0 until 8; k <- i + 1 until 9; j <- k + 1 until 10)
      assert(c.gamma(id, Segment(i, j)) <=
        c.gamma(id, Segment(i, k)) + c.gamma(id, Segment(k, j)) + 1e-12)
  }

  test("CA total score never decreases when m grows") {
    val rnd = new Random(6)
    for (_ <- 1 to 10) {
      val c = randomCube(rnd, 4)
      val seg = Segment(0, 3)
      val scores = (1 to 4).map(m => new CascadingAnalysts(c, m).topIds(seg).best.last)
      assert(scores.zip(scores.tail).forall { case (a, b) => b >= a - 1e-9 })
    }
  }

  test("CA score never decreases when maxOrder grows") {
    val rnd = new Random(7)
    for (_ <- 1 to 10) {
      val c = randomCube(rnd, 4)
      val seg = Segment(1, 3)
      val scores = (1 to 3).map(o => new CascadingAnalysts(c, 3, maxOrder = o).topIds(seg).best(3))
      assert(scores.zip(scores.tail).forall { case (a, b) => b >= a - 1e-9 })
    }
  }

  test("CA score is bounded by the sum of the m largest γ (relaxation bound)") {
    val rnd = new Random(8)
    for (_ <- 1 to 15) {
      val c = randomCube(rnd, 5)
      val seg = Segment(0, 4)
      val top = new CascadingAnalysts(c, 3).topIds(seg)
      val loose = c.expls.indices.map(c.gamma(_, seg)).sorted.reverse.take(3).sum
      assert(top.best(3) <= loose + 1e-9)
    }
  }

  test("guess-verify with default settings equals full CA on small cubes (short-circuit)") {
    val rnd = new Random(9)
    val c = randomCube(rnd, 5)
    val gv = new GuessVerify(c, 3)
    val ca = new CascadingAnalysts(c, 3)
    for (i <- 0 until 4; j <- i + 1 until 5) {
      val seg = Segment(i, j)
      assert(gv.topIds(seg).ids.toSeq == ca.topIds(seg).ids.toSeq)
    }
  }

  test("total DP variance at K equals the sum over the returned scheme's segments") {
    val rnd = new Random(10)
    for (_ <- 1 to 5) {
      val c = randomCube(rnd, 10, attrs = 1, vals = 3)
      val ca = new CascadingAnalysts(c, 3)
      val cache = scala.collection.mutable.Map.empty[(Int, Int), TopIds]
      val costs = new SegmentCosts(c, VarianceMetric.Tse,
        s => cache.getOrElseUpdate((s.i, s.j), ca.topIds(s)))
      val res = KSegmentation.dp(costs.cost, (0 until c.n).toVector, 5)
      for (k <- 1 to 5)
        assert(math.abs(costs.objective(res.schemes(k - 1).get) - res.curve(k - 1)) < 1e-9)
    }
  }

  test("restricting candidates can only increase the optimum") {
    val rnd = new Random(11)
    val c = randomCube(rnd, 12, attrs = 1, vals = 3)
    val ca = new CascadingAnalysts(c, 3)
    val cache = scala.collection.mutable.Map.empty[(Int, Int), TopIds]
    val costs = new SegmentCosts(c, VarianceMetric.Tse,
      s => cache.getOrElseUpdate((s.i, s.j), ca.topIds(s)))
    val full = KSegmentation.dp(costs.cost, (0 until 12).toVector, 3)
    val restricted = KSegmentation.dp(costs.cost, Vector(0, 3, 6, 9, 11), 3)
    for (k <- 1 to 3)
      assert(restricted.curve(k - 1) >= full.curve(k - 1) - 1e-9)
  }

  test("elbow always returns a K inside the curve") {
    val rnd = new Random(12)
    for (_ <- 1 to 50) {
      val len = 2 + rnd.nextInt(18)
      var v = rnd.nextDouble() * 100 + 10
      val curve = Vector.fill(len) { v = v * (0.3 + rnd.nextDouble() * 0.7); v }
      val k = Elbow.select(curve)
      assert(k >= 1 && k <= len)
    }
  }

  test("TopIds arrays stay internally consistent through the pipeline") {
    val rnd = new Random(13)
    val c = randomCube(rnd, 8)
    val ca = new CascadingAnalysts(c, 3)
    for (i <- 0 until 7; j <- i + 1 until 8) {
      val t = ca.topIds(Segment(i, j))
      assert(t.seg == Segment(i, j) && t.ids.length == t.taus.length)
      assert(t.best.length == 4)
      assert(t.ids.distinct.length == t.ids.length, "no duplicate selections")
    }
  }

  test("explanations and cube survive a filter→smooth→slice chain") {
    val rnd = new Random(14)
    val c = randomCube(rnd, 12)
    val chained = c.filtered(0.001).smoothed(3).slice(2, 9)
    assert(chained.n == 8)
    val top = new CascadingAnalysts(chained, 3).topIds(Segment(0, 7))
    assert(top.seg == Segment(0, 7))
    val gammas = CascadingAnalysts.pretty(chained, top).ranked.map(_.gamma)
    for (r <- top.ids.indices)
      assert(gammas(r) == chained.gamma(top.ids(r), Segment(0, 7)))
  }

  import InvariantsSpec.{relations, tied}

  test("adding an all-zero explanation changes no explanation, under vanilla, filter, O1 and O2") {
    val configs = Seq(TSConfig(), TSConfig(filterRatio = Some(0.05)), TSConfig(guessVerify = true), TSConfig(sketch = true))
    val prop = Prop.forAllNoShrink(relations) { rel =>
      val zeros = for (b <- 0 until rel.vals; t <- 0 until rel.n) yield (Map("A0" -> "zero", "A1" -> s"v$b"), t, 0.0)
      val padded = rel.copy(records = rel.records ++ zeros).cube
      val cube = rel.cube
      padded.epsilon == cube.epsilon + 1 + rel.vals &&
        configs.forall(cfg => TSExplain.explain(padded, cfg).explanation == TSExplain.explain(cube, cfg).explanation)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(50).withInitialSeed(Seed(2034L)), prop)
    assert(result.passed, result.status)
  }

  test("relabelling A0's values changes no score, cut or list, under vanilla, filter, O1 and O2") {
    val configs = Seq(TSConfig(), TSConfig(filterRatio = Some(0.05)), TSConfig(guessVerify = true), TSConfig(sketch = true))
    def bits(e: Explanation): Seq[Long] =
      (e.totalVariance +: e.kVarianceCurve.map(_._2)).map(java.lang.Double.doubleToRawLongBits)
    def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))
    val prop = Prop.forAllNoShrink(relations) { rel =>
      // v0 … v(vals − 1) become w(vals − 1) … w0: a bijection that reverses their name order.
      val renamed = (0 until rel.vals).map(a => s"v$a" -> s"w${rel.vals - 1 - a}").toMap
      def rename(e: Expl): Expl = Expl(e.preds.map(p => if (p.attr == "A0") p.copy(value = renamed(p.value)) else p))
      val relabelled = rel.copy(records = rel.records.map { case (vs, t, m) => (vs.updated("A0", renamed(vs("A0"))), t, m) }).cube
      val cube = rel.cube
      // Which of tied selections CA returns depends on the rounding of its
      // knapsack sums, so on the order it visits children in: name order.
      // The answer is defined up to names only without ties.
      val untied = Seq(cube, cube.filtered(0.05)).forall(!tied(_, 3))
      untied ==> configs.forall { cfg =>
        val a = TSExplain.explain(cube, cfg).explanation
        val b = TSExplain.explain(relabelled, cfg).explanation
        a.scheme == b.scheme && a.kVarianceCurve.map(_._1) == b.kVarianceCurve.map(_._1) && bits(a) == bits(b) &&
          a.perSegment.zip(b.perSegment).forall { case ((sa, ta), (sb, tb)) =>
            sa == sb && ta.ranked.map(r => r.copy(expl = rename(r.expl))) == tb.ranked &&
              ta.best.size == tb.best.size && ta.best.zip(tb.best).forall { case (x, y) => close(x, y) }
          }
      }
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(50).withInitialSeed(Seed(2035L)), prop)
    assert(result.passed, result.status)
  }

  test("reversing time mirrors every scheme's score and negates every list's τs") {
    def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))
    def costsOf(cube: ExplCube): SegmentCosts = {
      val ca = new CascadingAnalysts(cube, 3)
      val cache = scala.collection.mutable.Map.empty[Segment, TopIds]
      new SegmentCosts(cube, VarianceMetric.Tse, s => cache.getOrElseUpdate(s, ca.topIds(s)))
    }
    var untied = 0
    val prop = Prop.forAllNoShrink(relations) { rel =>
      val n = rel.n
      val cube = rel.cube
      val reversed = rel.copy(records = rel.records.map { case (vs, t, m) => (vs, n - 1 - t, m) }).cube
      def mirror(s: Segment): Segment = Segment(n - 1 - s.j, n - 1 - s.i)
      val costs = costsOf(cube)
      val revCosts = costsOf(reversed)
      val all = (0 until n).toVector
      val dp = KSegmentation.dp(costs.cost, all, n - 1)
      val revDp = KSegmentation.dp(revCosts.cost, all, n - 1)
      // The kernel sums a reversed segment's objects in the other order, so
      // scores agree to rounding, and equal scores can pick other schemes.
      val curves = dp.curve.size == revDp.curve.size && dp.curve.zip(revDp.curve).forall { case (a, b) => close(a, b) }
      val schemes = revDp.schemes.zipWithIndex.forall { case (s, k) =>
        close(costs.objective(SegScheme(s.get.cuts.map(n - 1 - _).reverse)), dp.curve(k))
      }
      // CA reads the same γs, bit for bit, on a segment and its mirror, so
      // picks the same ids; on ties the ranking is defined only up to them.
      val lists = tied(cube, 3) || {
        untied += 1
        val ca = new CascadingAnalysts(cube, 3)
        val revCa = new CascadingAnalysts(reversed, 3)
        (0 until n).forall(i => (i + 1 until n).forall { j =>
          val a = ca.topIds(mirror(Segment(i, j)))
          val b = revCa.topIds(Segment(i, j))
          a.ids.toSeq == b.ids.toSeq && a.taus.toSeq == b.taus.toSeq.map(-_)
        })
      }
      (curves :| "curves") && (schemes :| "mirrored schemes") && (lists :| "lists")
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(50).withInitialSeed(Seed(2036L)), prop)
    assert(result.passed, result.status)
    assert(untied >= 10, s"only $untied untied relations")
  }
}

object InvariantsSpec {

  /** A relation over A0 and A1 with `vals` values each: one record per
    * value pair and time, with a continuous measure.
    */
  final case class Relation(n: Int, vals: Int, records: Seq[(Map[String, String], Int, Double)]) {
    def cube: ExplCube = ExplCube.fromRecords(Seq("A0", "A1"), (0 until n).map(_.toString), records)
  }

  val relations: Gen[Relation] = for {
    n <- Gen.choose(3, 10)
    vals <- Gen.choose(2, 3)
    measures <- Gen.listOfN(vals * vals * n, Gen.choose(-10.0, 10.0))
  } yield Relation(n, vals, for ((m, r) <- measures.zipWithIndex) yield
    (Map("A0" -> s"v${r / (vals * n)}", "A1" -> s"v${r / n % vals}"), r % n, m))

  /** Whether some other selection of at most m non-overlapping explanations
    * scores within 1e-9 of `seg`'s best (by enumeration): a tie, which SUM's
    * additivity makes common (all values of A0, or of A1, sum to the total).
    */
  def tied(cube: ExplCube, seg: Segment, m: Int): Boolean = {
    val positive = cube.expls.indices.filter(cube.gamma(_, seg) > 0)
    val totals = scala.collection.mutable.ArrayBuffer.empty[Double]
    def extend(from: Int, chosen: List[Int], sum: Double): Unit = {
      totals += sum
      if (chosen.size < m) for (k <- from until positive.size) {
        val id = positive(k)
        if (chosen.forall(c => cube.expls(c).nonOverlapping(cube.expls(id)))) extend(k + 1, id :: chosen, sum + cube.gamma(id, seg))
      }
    }
    extend(0, Nil, 0.0)
    val top = totals.sorted(Ordering.Double.TotalOrdering.reverse)
    top.size >= 2 && top(1) >= top(0) * (1 - 1e-9)
  }

  /** Whether any segment of `cube` has a tie among selections of at most m. */
  def tied(cube: ExplCube, m: Int): Boolean =
    (0 until cube.n).exists(i => (i + 1 until cube.n).exists(j => tied(cube, Segment(i, j), m)))
}
