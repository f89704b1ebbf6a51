package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.NdcgDefinitions._
import scala.util.Random

class KSegmentationSpec extends AnyFunSuite {

  def randomCube(rnd: Random, n: Int, slices: Int = 3): ExplCube = {
    val series = Vector.tabulate(slices)(i =>
      Expl.of("a" -> s"v$i") -> Array.fill(n)(rnd.nextDouble() * 20 - 10))
    val total = Array.tabulate(n)(t => series.map(_._2(t)).sum)
    ExplCube.fromSeries(Seq("a"), (0 until n).map(_.toString), total, series)
  }

  def costsFor(cube: ExplCube, metric: VarianceMetric = VarianceMetric.Tse): SegmentCosts = {
    val ca = new CascadingAnalysts(cube, 3)
    val cache = scala.collection.mutable.Map.empty[(Int, Int), TopIds]
    new SegmentCosts(cube, metric, s => cache.getOrElseUpdate((s.i, s.j), ca.topIds(s)))
  }

  /** All K-segmentations of n points. */
  def allSchemes(n: Int, k: Int): Seq[SegScheme] =
    (1 until n - 1).combinations(k - 1).map(c => SegScheme(0 +: c.toVector :+ (n - 1))).toSeq

  test("DP matches brute-force enumeration for every K on random cubes") {
    val rnd = new Random(3)
    for (trial <- 1 to 8) {
      val cube = randomCube(rnd, n = 9)
      val costs = costsFor(cube)
      val res = KSegmentation.dp(costs.cost, (0 until cube.n).toVector, kMax = 4)
      for (k <- 1 to 4) {
        val brute = allSchemes(cube.n, k).map(s => costs.objective(s)).min
        assert(math.abs(res.curve(k - 1) - brute) < 1e-9, s"trial $trial k=$k")
        assert(math.abs(costs.objective(res.schemes(k - 1).get) - res.curve(k - 1)) < 1e-9,
          "reported scheme must achieve the reported score")
      }
    }
  }

  test("DP matches brute force for the allpair metric too") {
    val rnd = new Random(7)
    val cube = randomCube(rnd, n = 8)
    val costs = costsFor(cube, VarianceMetric.AllPair)
    val res = KSegmentation.dp(costs.cost, (0 until cube.n).toVector, kMax = 3)
    for (k <- 1 to 3) {
      val brute = allSchemes(cube.n, k).map(costs.objective).min
      assert(math.abs(res.curve(k - 1) - brute) < 1e-9, s"k=$k")
    }
  }

  test("K-variance curve is non-increasing in K") {
    val rnd = new Random(11)
    for (_ <- 1 to 5) {
      val cube = randomCube(rnd, n = 12)
      val costs = costsFor(cube)
      val res = KSegmentation.dp(costs.cost, (0 until cube.n).toVector, kMax = 8)
      for (k <- 2 to 8)
        assert(res.curve(k - 1) <= res.curve(k - 2) + 1e-9, s"curve increased at k=$k")
    }
  }

  test("K = n-1 reaches zero variance (every segment is one object)") {
    val rnd = new Random(13)
    val cube = randomCube(rnd, n = 7)
    val costs = costsFor(cube)
    val res = KSegmentation.dp(costs.cost, (0 until cube.n).toVector, kMax = cube.n - 1)
    assert(math.abs(res.curve(cube.n - 2)) < 1e-9)
  }

  test("maxSegLen marks short-K entries infeasible and respects the cap") {
    val rnd = new Random(17)
    val cube = randomCube(rnd, n = 10)
    val costs = costsFor(cube)
    val res = KSegmentation.dp(costs.cost, (0 until cube.n).toVector, kMax = 9, maxSegLen = Some(3))
    // 9 objects / cap 3 → need at least 3 segments
    assert(res.curve(0).isInfinity && res.curve(1).isInfinity)
    assert(res.curve(2).isFinite)
    for (k <- 3 to 9; s <- res.schemes(k - 1))
      assert(s.segments.forall(_.length <= 3), s"k=$k violates maxSegLen")
  }

  test("maxSegLen DP is optimal among length-capped schemes") {
    val rnd = new Random(19)
    val cube = randomCube(rnd, n = 9)
    val costs = costsFor(cube)
    val cap = 4
    val res = KSegmentation.dp(costs.cost, (0 until cube.n).toVector, kMax = 4, maxSegLen = Some(cap))
    for (k <- 2 to 4) {
      val feasible = allSchemes(cube.n, k).filter(_.segments.forall(_.length <= cap))
      if (feasible.nonEmpty) {
        val brute = feasible.map(costs.objective).min
        assert(math.abs(res.curve(k - 1) - brute) < 1e-9, s"k=$k")
      } else assert(res.curve(k - 1).isInfinity)
    }
  }

  test("candidate-position restriction constrains the cuts (sketch phase II)") {
    val rnd = new Random(23)
    val cube = randomCube(rnd, n = 12)
    val costs = costsFor(cube)
    val candidates = Vector(0, 3, 6, 9, 11)
    val res = KSegmentation.dp(costs.cost, candidates, kMax = 4)
    for (k <- 1 to 4; s <- res.schemes(k - 1)) {
      assert(s.cuts.forall(candidates.contains), s"k=$k cut outside candidates")
      // optimal among schemes over those candidates
      val brute = candidates.slice(1, candidates.size - 1).combinations(k - 1)
        .map(c => costs.objective(SegScheme(0 +: c.toVector :+ 11))).min
      assert(math.abs(res.curve(k - 1) - brute) < 1e-9)
    }
  }

  test("weighted variance of a unit segment is 0 for every metric") {
    val rnd = new Random(29)
    val cube = randomCube(rnd, n = 6)
    for (metric <- VarianceMetric.all) {
      val costs = costsFor(cube, metric)
      for (x <- 0 until cube.n - 1)
        assert(math.abs(costs.cost(x, x + 1)) < 1e-9, s"metric ${metric.name} unit [$x]")
    }
  }

  test("squared metrics never exceed their plain counterparts (distances ≤ 1)") {
    val rnd = new Random(31)
    val cube = randomCube(rnd, n = 8)
    val pairs = Seq(
      (VarianceMetric.Tse, VarianceMetric.STse),
      (VarianceMetric.Dist1, VarianceMetric.SDist1),
      (VarianceMetric.Dist2, VarianceMetric.SDist2),
      (VarianceMetric.AllPair, VarianceMetric.SAllPair),
    )
    for ((plain, squared) <- pairs) {
      val cp = costsFor(cube, plain)
      val cs = costsFor(cube, squared)
      for (i <- 0 until cube.n; j <- i + 1 until cube.n)
        assert(cs.cost(i, j) <= cp.cost(i, j) + 1e-9, s"${squared.name} > ${plain.name} on [$i,$j]")
    }
  }

  test("tse weighted variance equals |P| times the Eq. 7 average") {
    val rnd = new Random(37)
    val cube = randomCube(rnd, n = 8)
    val ca = new CascadingAnalysts(cube, 3)
    val cache = scala.collection.mutable.Map.empty[(Int, Int), TopIds]
    val topFn: Segment => TopIds = s => cache.getOrElseUpdate((s.i, s.j), ca.topIds(s))
    val costs = new SegmentCosts(cube, VarianceMetric.Tse, topFn)
    val nd = new Ndcg(cube)
    for (i <- 0 until cube.n; j <- i + 2 until cube.n) {
      val cen = Segment(i, j)
      val manual = (i until j).map { x =>
        nd.dist(cen, topFn(cen), Segment(x, x + 1), topFn(Segment(x, x + 1)))
      }.sum
      assert(math.abs(costs.cost(i, j) - manual) < 1e-9, s"[$i,$j]")
    }
  }

  test("objective sums segment costs") {
    val rnd = new Random(41)
    val cube = randomCube(rnd, n = 10)
    val costs = costsFor(cube)
    val scheme = SegScheme(Vector(0, 4, 7, 9))
    val manual = costs.cost(0, 4) + costs.cost(4, 7) + costs.cost(7, 9)
    assert(math.abs(costs.objective(scheme) - manual) < 1e-12)
  }

  test("cost reads one cell of a 50,000-point series, bit for bit as values does") {
    val n = 50000
    val rnd = new Random(43)
    val series = Array.fill(n)(rnd.nextDouble() * 20 - 10)
    val cube = ExplCube.fromSeries(Seq("a"), (0 until n).map(_.toString), series.clone(), Seq(Expl.of("a" -> "x") -> series))
    val ca = new CascadingAnalysts(cube, 3)
    val units = Array.tabulate(n - 1)(x => ca.topIds(Segment(x, x + 1)))
    val costs = new SegmentCosts(cube, VarianceMetric.Tse, s => if (s.length == 1) units(s.i) else ca.topIds(s))
    val cells = new KSegmentation.Cells(Vector(0, 10), 1, 10)
    val want = costs.values(cells, Array(ca.topIds(Segment(0, 10))))(0)
    assert(java.lang.Double.doubleToRawLongBits(costs.cost(0, 10)) == java.lang.Double.doubleToRawLongBits(want))
  }

  test("the DP over phase I's band allocates at most its back-pointers plus 1 MB") {
    val n = 3200
    val cells = new KSegmentation.Cells((0 until n).toVector, Sketch.sketchSize(n), Sketch.maxSegLen(n))
    val rnd = new Random(47)
    val w = Array.fill(cells.size)(rnd.nextDouble())
    val mx = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val thread = Thread.currentThread.getId
    KSegmentation.dp(cells, w) // loads and links what the DP runs
    val before = mx.getThreadAllocatedBytes(thread)
    val res = KSegmentation.dp(cells, w)
    val allocated = mx.getThreadAllocatedBytes(thread) - before
    val fromTable = (Sketch.sketchSize(n) + 1).toLong * n * 4
    assert(allocated <= fromTable + (1L << 20), s"the DP allocated $allocated bytes; its from table is $fromTable")
    // The sketch's k is feasible, and its scheme is backtracked on read.
    assert(res.schemes(Sketch.sketchSize(n) - 1).exists(_.k == Sketch.sketchSize(n)))
  }

  test("dp rejects malformed candidate lists") {
    intercept[IllegalArgumentException](KSegmentation.dp((_, _) => 0.0, Vector(3, 1), 2))
    intercept[IllegalArgumentException](KSegmentation.dp((_, _) => 0.0, Vector(1), 1))
  }
}
