package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CascadingAnalystsSpec extends AnyFunSuite {

  /** Random small cube over `attrs` attributes with `vals` values each;
    * series length 2 so every γ is just a signed delta.
    */
  def randomCube(rnd: Random, attrs: Int = 2, vals: Int = 3, n: Int = 2): ExplCube = {
    val attrNames = (0 until attrs).map(i => s"A$i")
    val recs = for {
      combo <- attrNames.map(a => (0 until vals).map(v => a -> s"v$v")).foldLeft(Seq(Seq.empty[(String, String)]))((acc, col) => acc.flatMap(pfx => col.map(pfx :+ _)))
      t <- 0 until n
    } yield (combo.toMap, t, rnd.nextDouble() * 20 - 10)
    ExplCube.fromRecords(attrNames, (0 until n).map(_.toString), recs, maxOrder = 3)
  }

  def validate(cube: ExplCube, top: TopIds, seg: Segment, m: Int, maxOrder: Int): Unit = {
    assert(top.ids.length <= m, "at most m explanations")
    val es = top.ids.map(cube.expls)
    for (e <- es) assert(e.order <= maxOrder, s"order bound violated by $e")
    for (i <- es.indices; j <- i + 1 until es.length)
      assert(es(i).nonOverlapping(es(j)), s"${es(i)} overlaps ${es(j)}")
    assert(top.seg == seg, "the list records the segment it ranks")
    val gammas = CascadingAnalysts.pretty(cube, top).ranked.map(_.gamma)
    for (r <- top.ids.indices) {
      assert(gammas(r) == cube.gamma(top.ids(r), seg), "reported γ must match cube")
      assert(top.taus(r) == cube.tau(top.ids(r), seg), "reported τ must match cube")
    }
    assert(gammas == gammas.sortBy(-(_: Double)), "ranked by γ descending")
    assert(math.abs(top.best(m) - gammas.sum) < 1e-9, "Best[m] equals the selection's total")
  }

  test("DP equals the exponential reference on random 2-attribute cubes") {
    val rnd = new Random(7)
    for (trial <- 1 to 30) {
      val cube = randomCube(rnd)
      val seg = Segment(0, 1)
      for (m <- 1 to 3) {
        val ca = new CascadingAnalysts(cube, m)
        val got = ca.topIds(seg)
        val (bruteScore, _) = CascadingAnalystsBrute.topExpl(cube, seg, m)
        assert(math.abs(got.best(m) - bruteScore) < 1e-9, s"trial $trial m=$m")
        validate(cube, got, seg, m, 3)
      }
    }
  }

  test("DP equals the exponential reference on random 3-attribute cubes") {
    val rnd = new Random(13)
    for (trial <- 1 to 10) {
      val cube = randomCube(rnd, attrs = 3, vals = 2)
      val seg = Segment(0, 1)
      val ca = new CascadingAnalysts(cube, 3)
      val got = ca.topIds(seg)
      val (bruteScore, _) = CascadingAnalystsBrute.topExpl(cube, seg, 3)
      assert(math.abs(got.best(3) - bruteScore) < 1e-9, s"trial $trial")
      validate(cube, got, seg, 3, 3)
    }
  }

  test("single-attribute cube: top-m are simply the m largest |Δ| values") {
    val n = 2
    val series = Seq(
      Expl.of("a" -> "p") -> Array(0.0, 9.0),
      Expl.of("a" -> "q") -> Array(0.0, -7.0),
      Expl.of("a" -> "r") -> Array(0.0, 4.0),
      Expl.of("a" -> "s") -> Array(0.0, 1.0),
    )
    val total = Array(0.0, 7.0)
    val cube = ExplCube.fromSeries(Seq("a"), Seq("0", "1"), total, series)
    val top = new CascadingAnalysts(cube, 3).topIds(Segment(0, 1))
    assert(top.ids.map(cube.expls).map(_.toString).toSeq == Seq("a=p", "a=q", "a=r"))
    assert(top.ids.map(cube.gamma(_, Segment(0, 1))).toSeq == Seq(9.0, 7.0, 4.0))
    assert(top.taus.toSeq == Seq(1, -1, 1))
  }

  test("marginal-vs-cell choice: CA drills down when a refinement scores higher") {
    // a=x moves +10 overall but its b=1 slice moves +30 (b=2 moves -20):
    // the cell (a=x & b=1) should beat the marginal (a=x).
    val recs = Seq(
      (Map("a" -> "x", "b" -> "1"), 0, 0.0), (Map("a" -> "x", "b" -> "1"), 1, 30.0),
      (Map("a" -> "x", "b" -> "2"), 0, 20.0), (Map("a" -> "x", "b" -> "2"), 1, 0.0),
    )
    val cube = ExplCube.fromRecords(Seq("a", "b"), Seq("0", "1"), recs)
    val top = new CascadingAnalysts(cube, 1).topIds(Segment(0, 1))
    assert(top.ids.map(cube.expls).map(_.toString).toSeq == Seq("a=x & b=1"))
    assert(top.best(1) == 30.0)
  }

  test("CA selects the marginal when the whole slice moves together") {
    val recs = Seq(
      (Map("a" -> "x", "b" -> "1"), 0, 0.0), (Map("a" -> "x", "b" -> "1"), 1, 15.0),
      (Map("a" -> "x", "b" -> "2"), 0, 0.0), (Map("a" -> "x", "b" -> "2"), 1, 14.0),
    )
    val cube = ExplCube.fromRecords(Seq("a", "b"), Seq("0", "1"), recs)
    val top = new CascadingAnalysts(cube, 1).topIds(Segment(0, 1))
    assert(top.ids.map(cube.expls).map(_.toString).toSeq == Seq("a=x"))
    assert(top.best(1) == 29.0)
  }

  test("quota splits across sibling subtrees (Figure 8 shape)") {
    // two a-branches, each with two strong b-cells moving in opposite
    // directions (so every marginal nets to ~0): with m=4 all four cells
    // must be picked, splitting the quota 2+2 across the a-subtrees.
    val recs = Seq(
      (Map("a" -> "x", "b" -> "1"), 0, 0.0), (Map("a" -> "x", "b" -> "1"), 1, 10.0),
      (Map("a" -> "x", "b" -> "2"), 0, 9.0), (Map("a" -> "x", "b" -> "2"), 1, 0.0),
      (Map("a" -> "y", "b" -> "1"), 0, 8.0), (Map("a" -> "y", "b" -> "1"), 1, 0.0),
      (Map("a" -> "y", "b" -> "2"), 0, 0.0), (Map("a" -> "y", "b" -> "2"), 1, 7.0),
    )
    val cube = ExplCube.fromRecords(Seq("a", "b"), Seq("0", "1"), recs)
    val top = new CascadingAnalysts(cube, 4).topIds(Segment(0, 1))
    assert(top.ids.map(cube.expls).map(_.toString).sorted.toSeq ==
      Seq("a=x & b=1", "a=x & b=2", "a=y & b=1", "a=y & b=2"))
    assert(top.best(4) == 34.0)
  }

  test("Best vector is nondecreasing in the quota") {
    val rnd = new Random(29)
    for (_ <- 1 to 20) {
      val cube = randomCube(rnd)
      val top = new CascadingAnalysts(cube, 3).topIds(Segment(0, 1))
      assert(top.best.toSeq == top.best.toSeq.sorted)
      assert(top.best(0) == 0.0)
    }
  }

  test("maxOrder=1 restricts selections to single predicates") {
    val rnd = new Random(31)
    for (_ <- 1 to 10) {
      val cube = randomCube(rnd)
      val top = new CascadingAnalysts(cube, 3, maxOrder = 1).topIds(Segment(0, 1))
      assert(top.ids.map(cube.expls).forall(_.order == 1))
      validate(cube, top, Segment(0, 1), 3, 1)
      val brute = CascadingAnalystsBrute.topExpl(cube, Segment(0, 1), 3, maxOrder = 1)._1
      assert(math.abs(top.best(3) - brute) < 1e-9)
    }
  }

  test("memo reuse across segments returns the same answers as fresh solvers") {
    val rnd = new Random(37)
    val n = 6
    val recs = for {
      a <- Seq("x", "y", "z"); b <- Seq("1", "2"); t <- 0 until n
    } yield (Map("a" -> a, "b" -> b), t, rnd.nextDouble() * 10)
    val cube = ExplCube.fromRecords(Seq("a", "b"), (0 until n).map(_.toString), recs)
    val shared = new CascadingAnalysts(cube, 3)
    for (i <- 0 until n; j <- i + 1 until n) {
      val seg = Segment(i, j)
      val a = shared.topIds(seg)
      val b = new CascadingAnalysts(cube, 3).topIds(seg)
      assert(a.best.toSeq == b.best.toSeq, s"[$i,$j]")
      assert(a.ids.toSeq == b.ids.toSeq, s"[$i,$j]")
    }
  }

  test("masked CA equals CA on the sub-cube of the active ids") {
    val rnd = new Random(43)
    for (trial <- 1 to 20) {
      val cube = randomCube(rnd, attrs = 3, vals = 3, n = 4)
      val ca = new CascadingAnalysts(cube, 3) // one solver across masks: the memo is reused
      for (_ <- 1 to 5) {
        // random ids, closed under sub-conjunctions through Expl.without
        var keep = cube.expls.filter(_ => rnd.nextDouble() < 0.2).toSet
        var grown = true
        while (grown) {
          val more = keep ++ keep.flatMap(e => e.preds.map(p => e.without(p.attr))).filter(cube.contains)
          grown = more.size > keep.size
          keep = more
        }
        val ids = cube.expls.indices.filter(id => keep(cube.expls(id))).toVector
        val sub = new ExplCube(cube.attrs, cube.times, cube.total, ids.map(cube.expls), ids.map(cube.series).toArray)
        val subCa = new CascadingAnalysts(sub, 3)
        val active = cube.expls.indices.map(id => keep(cube.expls(id))).toArray
        for (i <- 0 until cube.n; j <- i + 1 until cube.n) {
          val seg = Segment(i, j)
          val got = ca.topIds(seg, active)
          val want = subCa.topIds(seg)
          assert(got.ids.toSeq == want.ids.toSeq.map(ids), s"trial $trial [$i,$j]")
          assert(got.seg == want.seg && CascadingAnalysts.pretty(cube, got) == CascadingAnalysts.pretty(sub, want))
          assert(got.best.toSeq == want.best.toSeq)
        }
      }
      assert(ca.topIds(Segment(0, 1)).best.toSeq == new CascadingAnalysts(cube, 3).topIds(Segment(0, 1)).best.toSeq,
        "an unmasked call after masked ones sees every explanation")
    }
  }

  test("ids, τs and Best bits equal the reference solver's on random integer cubes, masked and unmasked") {
    // 1–4 attributes of 2–3 values, some value combinations absent, and
    // integer measures, so that sums tie; a seed draws the masks.
    val cubes = for {
      attrs <- Gen.choose(1, 4)
      vals <- Gen.choose(2, 3)
      n <- Gen.choose(2, 5)
      combos = Seq.fill(attrs)(0 until vals).foldLeft(Seq(Seq.empty[Int]))((acc, col) => acc.flatMap(pfx => col.map(pfx :+ _)))
      present <- Gen.listOfN(combos.size, Gen.frequency(4 -> true, 1 -> false))
      measures <- Gen.listOfN(combos.size * n, Gen.choose(-3, 3))
      seed <- Gen.long
    } yield {
      val names = (0 until attrs).map(a => s"A$a")
      val recs = for ((combo, c) <- combos.zipWithIndex if present(c); t <- 0 until n)
        yield (names.zip(combo.map(v => s"v$v")).toMap, t, measures(c * n + t).toDouble)
      (attrs, ExplCube.fromRecords(names, (0 until n).map(_.toString), recs), seed)
    }
    def bits(t: TopIds): (Segment, Seq[Int], Seq[Int], Seq[Long]) =
      (t.seg, t.ids.toSeq, t.taus.toSeq, t.best.toSeq.map(java.lang.Double.doubleToRawLongBits))
    val prop = Prop.forAllNoShrink(cubes) { case (attrs, cube, seed) =>
      val rnd = new Random(seed)
      // The full cube, then masks of random ids closed by markWithAncestors.
      val masks = Array.fill(cube.epsilon)(true) +: Seq.fill(3) {
        val mask = new Array[Boolean](cube.epsilon)
        for (id <- cube.expls.indices if rnd.nextDouble() < 0.3) cube.markWithAncestors(id, mask)
        mask
      }
      val segments = for (i <- 0 until cube.n; j <- i + 1 until cube.n) yield Segment(i, j)
      Seq(1, 2, 3, 5).forall { m =>
        Seq(attrs - 1, attrs).forall { order =>
          val ca = new CascadingAnalysts(cube, m, order)
          val ref = new CascadingAnalystsReference(cube, m, order)
          masks.forall(mask => segments.forall(s => bits(ca.topIds(s, mask)) == bits(ref.topIds(s, mask))))
        }
      }
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(2040L)), prop)
    assert(result.passed, result.status)
  }

  test("a flat segment yields zero scores and an empty or zero-γ selection") {
    val cube = ExplCube.fromSeries(Seq("a"), Seq("0", "1"), Array(5.0, 5.0),
      Seq(Expl.of("a" -> "x") -> Array(2.0, 2.0), Expl.of("a" -> "y") -> Array(3.0, 3.0)))
    val top = new CascadingAnalysts(cube, 3).topIds(Segment(0, 1))
    assert(top.best(3) == 0.0)
    assert(top.ids.forall(cube.gamma(_, Segment(0, 1)) == 0.0))
  }

  test("topIds allocates at most 160 bytes per call: the list and its three arrays") {
    val cube = repro.synth.RealWorldSim.covidDaily().cube.smoothed(5)
    val ca = new CascadingAnalysts(cube, 3)
    val segments = for (i <- 0 until cube.n; j <- i + 1 until cube.n) yield Segment(i, j)
    var sink = 0L
    def pass(): Unit = for (s <- segments) sink += ca.topIds(s).size
    pass(); pass() // warm-up: loads and compiles what topIds runs
    val mx = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val thread = Thread.currentThread.getId
    val before = mx.getThreadAllocatedBytes(thread)
    pass()
    val perCall = (mx.getThreadAllocatedBytes(thread) - before).toDouble / segments.size
    assert(sink > 0)
    assert(perCall <= 160, f"topIds allocated $perCall%.1f bytes per call")
  }

  test("pretty conversion preserves rank order, γ and τ") {
    val rnd = new Random(41)
    val cube = randomCube(rnd)
    val ca = new CascadingAnalysts(cube, 3)
    val ids = ca.topIds(Segment(0, 1))
    val pretty = CascadingAnalysts.pretty(cube, ids)
    assert(ids.seg == Segment(0, 1))
    assert(pretty.ranked.map(_.gamma) == ids.ids.toVector.map(cube.gamma(_, Segment(0, 1))))
    assert(pretty.ranked.map(_.tau) == ids.taus.toVector)
    assert(pretty.ranked.map(_.expl) == ids.ids.toVector.map(cube.expls))
  }
}
