package repro.core

import java.util.concurrent.{CountDownLatch, ForkJoinWorkerThread, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The driver's parallel stages: the block-parallel [[TopLists.Driver]], the
  * hoisted cost kernel of [[SegmentCosts.weightedVar]] and the parallel
  * [[SegmentCosts.fill]].
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
          assert(costs.weightedVar(s.i, s.j) == ref(s.i, s.j), s"trial $trial ${metric.name} $s")
      }
    }
  }

  test("fill then cost equals the lazy cost, bit for bit, on every cell") {
    val rnd = new Random(19)
    for (cube <- Seq(flatCube(rnd, n = 30), wideCube(rnd, n = 24))) {
      val top = topTable(cube)
      for (metric <- VarianceMetric.all) {
        val lazyCosts = new SegmentCosts(cube, metric, top)
        val filled = new SegmentCosts(cube, metric, top)
        filled.fill(allSegments(cube.n).iterator)
        for (s <- allSegments(cube.n)) {
          val (a, b) = (filled.cost(s.i, s.j), lazyCosts.cost(s.i, s.j))
          assert(java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b), s"${metric.name} $s")
        }
      }
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
          assert(g.ids.sameElements(e.ids) && g.gammas.sameElements(e.gammas) && g.taus.sameElements(e.taus) &&
            g.best.sameElements(e.best), s"guessVerify=${cfg.guessVerify} batch of ${batch.size}")
        }
      }
    }
  }

  test("an IllegalArgumentException thrown on a pool worker reaches explain's caller as one") {
    val cube = wideCube(new Random(29), n = 30)
    val workerThrew = new CountDownLatch(1)
    // Reading a segment throws on a pool worker; the calling thread first
    // waits for a worker to throw, so the exception explain's caller gets
    // is the worker's.
    val failing: TopLists = (c, cfg, segments) => TopLists.Driver(c, cfg, new IndexedSeq[Segment] {
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
