package repro.core

import java.util.concurrent.{CountDownLatch, ForkJoinWorkerThread, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.NdcgDefinitions._
import scala.util.Random

/** The driver's parallel stages and hot loops: the block-parallel
  * [[TopLists.Driver]], the lookup cost kernel of [[SegmentCosts]], its
  * parallel [[SegmentCosts.values]], the DP's cell list
  * ([[KSegmentation.Cells]]) and the DP over it.
  */
class ParallelStagesSpec extends AnyFunSuite {

  /** Random cube over 2 attributes × 3 values with small integer measures,
    * so many changes are 0 (τ = 0); every series repeats time 3 at time 5
    * and time 7 at time 8, so [3, 5] and [7, 8] are flat (IDCG = 0).
    */
  def flatCube(rnd: Random, n: Int = 14): ExplCube = {
    val attrs = Seq("A0", "A1")
    val base = (t: Int) => if (t == 5) 3 else if (t == 8) 7 else t
    val recs = for {
      a <- 0 until 3; b <- 0 until 3
      values = Array.fill(n)(rnd.nextInt(5) - 2.0)
      t <- 0 until n
    } yield (Map("A0" -> s"v$a", "A1" -> s"v$b"), t, values(base(t)))
    ExplCube.fromRecords(attrs, (0 until n).map(_.toString), recs)
  }

  /** Random cube over 3 attributes × 4 values (ε = 124), wide enough for O1
    * to guess with m̄ < ε.
    */
  def wideCube(rnd: Random, n: Int): ExplCube = {
    val attrs = Seq("A0", "A1", "A2")
    val recs = for {
      a <- 0 until 4; b <- 0 until 4; c <- 0 until 4
      t <- 0 until n
    } yield (Map("A0" -> s"v$a", "A1" -> s"v$b", "A2" -> s"v$c"), t, rnd.nextDouble() * 20 - 5)
    ExplCube.fromRecords(attrs, (0 until n).map(_.toString), recs)
  }

  /** A cube over one attribute × 3 values whose series rise at rates 1, 3
    * and 9 until the middle and fall after it, so few distinct lists exist
    * and each has many cells.
    */
  def trendCube(n: Int): ExplCube = {
    val recs = for (v <- 0 until 3; t <- 0 until n) yield (Map("A0" -> s"v$v"), t, math.pow(3, v) * (n / 2 - math.abs(t - n / 2)))
    ExplCube.fromRecords(Seq("A0"), (0 until n).map(_.toString), recs)
  }

  /** Every segment's CA list, in a table filled up front (so reading it is
    * safe from several threads).
    */
  def topTable(cube: ExplCube): Segment => TopIds = {
    val n = cube.n
    val ca = new CascadingAnalysts(cube, 3)
    val table = new Array[TopIds](n * n)
    for (i <- 0 until n; j <- i + 1 until n) table(i * n + j) = ca.topIds(Segment(i, j))
    s => table(s.i * n + s.j)
  }

  def sameBits(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b)

  def allSegments(n: Int): Vector[Segment] = for (i <- (0 until n).toVector; j <- i + 1 until n) yield Segment(i, j)

  /** |P|·var(P) straight from the definitions: Eq. 6 (`Ndcg.dist`) or one
    * of its directions (`dist1`, `dist2`) per object, or Eq. 10's average
    * over object pairs.
    */
  def referenceVar(cube: ExplCube, metric: VarianceMetric, top: Segment => TopIds)(i: Int, j: Int): Double = {
    val nd = new Ndcg(cube)
    def sq(v: Double) = if (metric.squared) v * v else v
    def unit(x: Int) = Segment(x, x + 1)
    val len = j - i
    metric match {
      case VarianceMetric.AllPair | VarianceMetric.SAllPair =>
        if (len <= 1) 0.0
        else {
          var s = 0.0
          for (x <- i until j; y <- x + 1 until j) s += sq(nd.dist(unit(x), top(unit(x)), unit(y), top(unit(y))))
          len * (s / (len * (len - 1) / 2.0))
        }
      case _ =>
        val c = Segment(i, j)
        var s = 0.0
        for (x <- i until j) {
          val o = unit(x)
          s += sq(metric match {
            case VarianceMetric.Tse | VarianceMetric.STse => nd.dist(c, top(c), o, top(o))
            case VarianceMetric.Dist1 | VarianceMetric.SDist1 => nd.dist1(c, top(c), top(o))
            case _ => nd.dist2(o, top(o), top(c))
          })
        }
        s
    }
  }

  test("the cost kernel equals the definitions for all 8 metrics, flat segments and τ = 0 included") {
    val rnd = new Random(17)
    for (trial <- 1 to 4) {
      val cube = flatCube(rnd)
      val top = topTable(cube)
      assert(new Ndcg(cube).dcgSelf(Segment(3, 5), top(Segment(3, 5))) == 0.0, "a flat segment")
      assert(allSegments(cube.n).exists(s => (0 until cube.n - 1).exists(x =>
        top(s).ids.exists(id => cube.tau(id, Segment(x, x + 1)) == 0))), "a listed explanation with τ = 0 on a unit")
      for (metric <- VarianceMetric.all) {
        val costs = new SegmentCosts(cube, metric, top)
        val ref = referenceVar(cube, metric, top) _
        for (s <- allSegments(cube.n))
          assert(costs.cost(s.i, s.j) == ref(s.i, s.j), s"trial $trial ${metric.name} $s")
      }
    }
  }

  /** Every pair of `positions` within `maxSegLen` as DP cells, with their lists. */
  def cellsWithLists(positions: Vector[Int], maxSegLen: Int, top: Segment => TopIds): (KSegmentation.Cells, Array[TopIds]) = {
    val cells = new KSegmentation.Cells(positions, positions.size, maxSegLen)
    (cells, Array.tabulate(cells.size)(k => top(Segment(cells.start(k), cells.end(k)))))
  }

  test("values equals the lazy cost, bit for bit, on every cell") {
    val rnd = new Random(19)
    for (cube <- Seq(flatCube(rnd, n = 30), wideCube(rnd, n = 24))) {
      val top = topTable(cube)
      val (cells, lists) = cellsWithLists((0 until cube.n).toVector, cube.n, top)
      assert(cells.size == allSegments(cube.n).size)
      for (metric <- VarianceMetric.all) {
        val lazyCosts = new SegmentCosts(cube, metric, top)
        val costs = new SegmentCosts(cube, metric, top)
        val values = costs.values(cells, lists.map(costs.intern))
        for (k <- 0 until cells.size) {
          val s = Segment(cells.start(k), cells.end(k))
          assert(sameBits(values(k), lazyCosts.cost(s.i, s.j)), s"${metric.name} $s")
        }
      }
    }
  }

  test("intern gives lists one row per distinct ranking, units first, then in order of first sight") {
    val rnd = new Random(23)
    val cube = wideCube(rnd, n = 24)
    val top = topTable(cube)
    val costs = new SegmentCosts(cube, VarianceMetric.Tse, top)
    def key(s: Segment) = (top(s).ids.toSeq, top(s).taus.toSeq)
    val segs = allSegments(cube.n).sortBy(s => (-s.length, s.i)) // units last
    val unitKeys = (0 until cube.n - 1).map(x => key(Segment(x, x + 1))).distinct
    val rows = unitKeys ++ segs.map(key).distinct.filterNot(unitKeys.contains)
    assert(rows.size > 64, "many rows")
    val ids = segs.map(s => costs.intern(top(s)))
    assert(ids == segs.map(s => rows.indexOf(key(s))))
    assert((0 until cube.n - 1).forall(x => costs.unitId(x) == rows.indexOf(key(Segment(x, x + 1)))))
    assert(segs.reverse.map(s => costs.intern(top(s))) == ids.reverse, "a second pass finds the same rows")
  }

  /** The per-object cost kernel of the version before the lookup kernel:
    * every object's list and the centroid's list compared with
    * `Ndcg.ndcgGiven`, object by object.
    */
  def perObjectVar(cube: ExplCube, metric: VarianceMetric, top: Segment => TopIds)(i: Int, j: Int): Double = {
    val nd = new Ndcg(cube)
    def sq(v: Double) = if (metric.squared) v * v else v
    def unit(x: Int) = Segment(x, x + 1)
    val unitIdcg = Array.tabulate(cube.n - 1)(x => nd.dcgSelf(unit(x), top(unit(x))))
    val toCentroid = metric != VarianceMetric.Dist2 && metric != VarianceMetric.SDist2
    val toObject = metric != VarianceMetric.Dist1 && metric != VarianceMetric.SDist1
    val len = j - i
    metric match {
      case VarianceMetric.AllPair | VarianceMetric.SAllPair =>
        if (len <= 1) 0.0
        else {
          var s = 0.0
          for (x <- i until j; y <- x + 1 until j)
            s += sq(1.0 - (nd.ndcgGiven(unitIdcg(x), unit(x), top(unit(y))) +
              nd.ndcgGiven(unitIdcg(y), unit(y), top(unit(x)))) / 2.0)
          len * (s / (len * (len - 1) / 2.0))
        }
      case _ =>
        val cseg = Segment(i, j)
        val ctop = top(cseg)
        val cIdcg = if (toCentroid) nd.dcgSelf(cseg, ctop) else 0.0
        var s = 0.0
        for (x <- i until j) {
          val d =
            if (!toObject) 1.0 - nd.ndcgGiven(cIdcg, cseg, top(unit(x)))
            else if (!toCentroid) 1.0 - nd.ndcgGiven(unitIdcg(x), unit(x), ctop)
            else 1.0 - (nd.ndcgGiven(cIdcg, cseg, top(unit(x))) + nd.ndcgGiven(unitIdcg(x), unit(x), ctop)) / 2.0
          s += sq(d)
        }
        s
    }
  }

  test("band and sketch values and lazy costs equal the per-object kernel") {
    val rnd = new Random(31)
    val maxLen = 4
    for ((cube, kind) <- Seq(flatCube(rnd, n = 40) -> "flat", wideCube(rnd, n = 30) -> "wide", trendCube(n = 40) -> "trend")) {
      val n = cube.n
      val top = topTable(cube)
      if (kind == "flat") {
        assert(new Ndcg(cube).dcgSelf(Segment(7, 8), top(Segment(7, 8))) == 0.0, "a flat unit")
        assert(allSegments(n).exists(s => (0 until n - 1).exists(x =>
          top(s).ids.exists(id => cube.tau(id, Segment(x, x + 1)) == 0))), "a listed explanation with τ = 0 on a unit")
      }
      val band = cellsWithLists((0 until n).toVector, maxLen, top)
      val positions = (0 +: (1 until n - 1).filter(_ => rnd.nextDouble() < 0.6) :+ (n - 1)).toVector
      val pairs = cellsWithLists(positions, n, top)
      // The second call computes the pairs in Blocks.run's blocks, slices
      // of the cells ordered by list id; on the trend cube some centroid
      // list has cells in two of them. Every Eq. 6 instance below interns
      // the same lists in the same order, so gives them these ids.
      val probe = new SegmentCosts(cube, VarianceMetric.Tse, top)
      band._2.foreach(probe.intern)
      val pairIds = pairs._2.map(probe.intern)
      val size = pairs._1.size
      val blocks = math.min(size / Blocks.MinSize, 4 * (java.util.concurrent.ForkJoinPool.getCommonPoolParallelism + 1))
      assert(blocks >= 2, "the pairs span several blocks")
      val order = (0 until size).sortBy(pairIds(_))
      if (kind == "trend")
        assert((1 until blocks).map(b => (b.toLong * size / blocks).toInt).exists(r => pairIds(order(r - 1)) == pairIds(order(r))),
          "a centroid list cut apart by a block split")
      for (metric <- VarianceMetric.all) {
        val ref = perObjectVar(cube, metric, top) _
        val costs = new SegmentCosts(cube, metric, top)
        val lazyCosts = new SegmentCosts(cube, metric, top)
        for ((cells, lists) <- Seq(band, pairs)) {
          val values = costs.values(cells, lists.map(costs.intern))
          for (k <- 0 until cells.size) {
            val s = Segment(cells.start(k), cells.end(k))
            val want = ref(s.i, s.j)
            assert(sameBits(values(k), want), s"values ${metric.name} $s")
            assert(sameBits(lazyCosts.cost(s.i, s.j), want), s"lazy ${metric.name} $s")
          }
        }
      }
    }
  }

  /** The DP of the version before the one-read cost array: it calls `cost`
    * for each (b, a) of each layer whose prefix d(k − 1)(b) is finite.
    */
  def layerByLayerDp(cost: (Int, Int) => Double, positions: Vector[Int], kMax: Int,
      maxSegLen: Option[Int]): KSegmentation.DPResult = {
    val p = positions.toArray
    val np = p.length
    val kCap = math.min(kMax, np - 1)
    val cap = maxSegLen.getOrElse(Int.MaxValue)
    val firstStart = Array.tabulate(np)(a => (0 until a).find(b => p(a) - p(b) <= cap).getOrElse(a))
    val inf = Double.PositiveInfinity
    val d = Array.fill(kCap + 1)(Array.fill(np)(inf))
    val from = Array.fill(kCap + 1)(Array.fill(np)(-1))
    for (a <- 1 until np if firstStart(a) == 0) { d(1)(a) = cost(p(0), p(a)); from(1)(a) = 0 }
    for (k <- 2 to kCap; a <- k until np) {
      var best = inf
      var arg = -1
      for (b <- math.max(k - 1, firstStart(a)) until a if d(k - 1)(b) < inf) {
        val v = d(k - 1)(b) + cost(p(b), p(a))
        if (v < best) { best = v; arg = b }
      }
      d(k)(a) = best; from(k)(a) = arg
    }
    val last = np - 1
    val schemes = (1 to kCap).map { k =>
      if (d(k)(last) < inf)
        Some(SegScheme(Iterator.iterate((k, last)) { case (kk, cur) => (kk - 1, from(kk)(cur)) }
          .take(k + 1).map(e => p(e._2)).toVector.reverse))
      else None
    }
    KSegmentation.DPResult((1 to kCap).map(k => d(k)(last)).toVector, schemes.toVector)
  }

  test("dp reads each allowed cell once and equals the layer-by-layer DP, bit for bit") {
    val rnd = new Random(37)
    for (trial <- 1 to 300) {
      val n = 2 + rnd.nextInt(30)
      val positions = (0 until n).filter(_ => rnd.nextDouble() < 0.7).toVector
      if (positions.size >= 2) {
        val kMax = 1 + rnd.nextInt(positions.size)
        val maxSegLen = if (rnd.nextBoolean()) None else Some(1 + rnd.nextInt(n))
        // Few distinct values, so that many candidate sums tie.
        val table = Array.fill(n * n)(rnd.nextInt(4) * 0.25 + (if (rnd.nextInt(8) == 0) 0.1 else 0.0))
        val reads = scala.collection.mutable.Map.empty[(Int, Int), Int].withDefaultValue(0)
        val got = KSegmentation.dp((i, j) => { reads((i, j)) += 1; table(i * n + j) }, positions, kMax, maxSegLen)
        val want = layerByLayerDp((i, j) => table(i * n + j), positions, kMax, maxSegLen)
        val what = s"trial $trial: positions $positions, kMax $kMax, cap $maxSegLen"
        assert(got.curve.size == want.curve.size && got.curve.zip(want.curve).forall { case (a, b) => sameBits(a, b) }, what)
        assert(got.schemes == want.schemes, what)
        val cap = maxSegLen.getOrElse(Int.MaxValue)
        val starts = if (math.min(kMax, positions.size - 1) >= 2) positions.size - 1 else 1
        val allowed = for (b <- 0 until starts; a <- b + 1 until positions.size if positions(a) - positions(b) <= cap)
          yield (positions(b), positions(a))
        assert(reads.keySet == allowed.toSet, what)
        assert(reads.values.forall(_ == 1), what)
      }
    }
  }

  test("Cells lists in-cap pairs by start, then end; indexOf finds each one") {
    val rnd = new Random(41)
    for (trial <- 1 to 300) {
      val n = 2 + rnd.nextInt(30)
      val positions = (0 until n).filter(_ => rnd.nextDouble() < 0.7).toVector
      if (positions.size >= 2) {
        val kMax = 1 + rnd.nextInt(positions.size + 1)
        val cap = 1 + rnd.nextInt(n)
        val what = s"trial $trial: positions $positions, kMax $kMax, cap $cap"
        val cells = new KSegmentation.Cells(positions, kMax, cap)
        val starts = if (math.min(kMax, positions.size - 1) >= 2) positions.size - 1 else 1
        val want = for (b <- 0 until starts; a <- b + 1 until positions.size if positions(a) - positions(b) <= cap)
          yield (positions(b), positions(a))
        assert((0 until cells.size).map(k => (cells.start(k), cells.end(k))) == want, what)
        for (k <- 0 until cells.size) assert(cells.indexOf(cells.start(k), cells.end(k)) == k, what)
        val others = for (i <- -1 to n + 1; j <- -1 to n + 1 if !want.contains((i, j))) yield (i, j)
        assert(others.forall { case (i, j) => cells.indexOf(i, j) == -1 }, what)
        val w = Array.fill(cells.size)(rnd.nextInt(4) * 0.25)
        assert(KSegmentation.dp(cells, w) == KSegmentation.dp((i, j) => w(cells.indexOf(i, j)), positions, kMax, Some(cap)), what)
      }
    }
    for (cap <- 1 to 5; kMax <- Seq(1, 2, 9)) {
      val cells = new KSegmentation.Cells((0 until 10).toVector, kMax, cap)
      assert(cells.indexOf(0, cap) >= 0 && cells.indexOf(0, cap + 1) == -1, s"cap $cap, kMax $kMax")
      if (kMax >= 2) assert(cells.indexOf(3, 3 + cap) >= 0 && cells.indexOf(3, 4 + cap) == -1, s"cap $cap, kMax $kMax")
      else assert(cells.indexOf(3, 4) == -1, s"cap $cap, kMax 1")
    }
  }

  test("the parallel driver source equals a sequential solver, for CA and O1") {
    val cube = wideCube(new Random(23), n = 40)
    val segments = allSegments(cube.n)
    assert(segments.size > 4 * Blocks.MinSize, "the full batch spans several blocks")
    for (cfg <- Seq(TSConfig(), TSConfig(guessVerify = true))) {
      for (batch <- Seq(Vector.empty, segments.take(Blocks.MinSize / 2), segments)) {
        val expected = batch.map(TopLists.solver(cube, cfg))
        val got = TopLists.Driver(cube, cfg, batch)
        assert(got.length == expected.size)
        for ((g, e) <- got.zip(expected)) {
          assert(g.seg == e.seg && g.ids.sameElements(e.ids) && g.taus.sameElements(e.taus) &&
            g.best.sameElements(e.best), s"guessVerify=${cfg.guessVerify} batch of ${batch.size}")
        }
      }
    }
  }

  test("an IllegalArgumentException thrown on a pool worker reaches explain's caller as one") {
    val cube = wideCube(new Random(29), n = 30)
    val workerThrew = new CountDownLatch(1)
    // In a batch that spans several blocks, reading a segment throws on a
    // pool worker; the calling thread first waits for a worker to throw, so
    // the exception explain's caller gets is the worker's. A smaller batch
    // (the units) runs on the calling thread alone and is read as it is.
    val failing: TopLists = (c, cfg, segments) =>
      if (segments.length < 2 * Blocks.MinSize) TopLists.Driver(c, cfg, segments)
      else TopLists.Driver(c, cfg, new IndexedSeq[Segment] {
        def length: Int = segments.length
        def apply(k: Int): Segment =
          if (Thread.currentThread.isInstanceOf[ForkJoinWorkerThread]) {
            workerThrew.countDown()
            throw new IllegalArgumentException(s"unreadable segment $k")
          } else {
            workerThrew.await(30, TimeUnit.SECONDS)
            segments(k)
          }
      })
    val e = intercept[IllegalArgumentException](TSExplain.explain(cube, TSConfig(), failing))
    assert(workerThrew.getCount == 0, "no pool worker ran a block")
    assert(e.getMessage.contains("unreadable segment"), e.getMessage)
  }
}
