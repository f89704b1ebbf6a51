package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.NdcgDefinitions._
import scala.util.Random

class NdcgSpec extends AnyFunSuite {

  /** 3-slice, 4-point cube with hand-computable deltas. */
  def cube: ExplCube = {
    val series = Seq(
      Expl.of("a" -> "x") -> Array(0.0, 10.0, 20.0, 10.0),
      Expl.of("a" -> "y") -> Array(0.0, 6.0, 2.0, 8.0),
      Expl.of("a" -> "z") -> Array(5.0, 5.0, 9.0, 1.0),
    )
    val total = Array(5.0, 21.0, 31.0, 19.0)
    ExplCube.fromSeries(Seq("a"), (0 until 4).map(_.toString), total, series)
  }

  def top(c: ExplCube, seg: Segment, m: Int = 3): TopIds =
    new CascadingAnalysts(c, m).topIds(seg)

  test("DCG of a segment's own list uses log2 rank discounts (Eq. 4)") {
    val c = cube
    val nd = new Ndcg(c)
    val seg = Segment(0, 1) // deltas: x +10, y +6, z 0
    val t = top(c, seg)
    val expected = 10.0 / (math.log(2) / math.log(2)) + 6.0 / (math.log(3) / math.log(2)) + 0.0
    assert(math.abs(nd.dcgSelf(seg, t) - expected) < 1e-9)
  }

  test("NDCG of a segment against its own list is 1") {
    val c = cube
    val nd = new Ndcg(c)
    for ((i, j) <- Seq((0, 1), (1, 2), (0, 3), (2, 3))) {
      val seg = Segment(i, j)
      val t = top(c, seg)
      assert(math.abs(nd.ndcg(seg, t, t) - 1.0) < 1e-9, s"[$i,$j]")
    }
  }

  test("rectified relevance zeroes explanations whose effect flips (Table 2)") {
    val c = cube
    val nd = new Ndcg(c)
    val s01 = Segment(0, 1) // x +10, y +6, z 0
    val s23 = Segment(2, 3) // x -10, y +6, z -8
    val t01 = top(c, s01)
    // evaluating t01's list against s23: x's effect flips (+ vs -), so only
    // y contributes at its rank in t01's list.
    val yRank = t01.ids.indexWhere(id => c.expls(id) == Expl.of("a" -> "y"))
    val expected = 6.0 / (math.log(yRank + 2.0) / math.log(2.0))
    assert(math.abs(nd.dcgCross(s23, t01) - expected) < 1e-9)
  }

  test("NDCG is within [0,1] on random cubes") {
    val rnd = new Random(11)
    for (_ <- 1 to 20) {
      val n = 6
      val series = Vector.tabulate(4)(i => Expl.of("a" -> s"v$i") -> Array.fill(n)(rnd.nextDouble() * 10 - 5))
      val total = Array.tabulate(n)(t => series.map(_._2(t)).sum)
      val c = ExplCube.fromSeries(Seq("a"), (0 until n).map(_.toString), total, series)
      val nd = new Ndcg(c)
      for (i <- 0 until n; j <- i + 1 until n; x <- 0 until n - 1) {
        val a = Segment(i, j); val b = Segment(x, x + 1)
        val v = nd.ndcg(a, top(c, a), top(c, b))
        assert(v >= 0.0 && v <= 1.0, s"NDCG $v out of range")
      }
    }
  }

  test("a flat segment is perfectly explained by anything (NDCG = 1 when IDCG = 0)") {
    val series = Seq(
      Expl.of("a" -> "x") -> Array(3.0, 3.0, 9.0),
      Expl.of("a" -> "y") -> Array(2.0, 2.0, 0.0),
    )
    val c = ExplCube.fromSeries(Seq("a"), Seq("0", "1", "2"), Array(5.0, 5.0, 9.0), series)
    val nd = new Ndcg(c)
    val flat = Segment(0, 1)
    val other = Segment(1, 2)
    assert(nd.ndcg(flat, top(c, flat), top(c, other)) == 1.0)
  }

  test("dist is symmetric and within [0,1] (Eq. 6)") {
    val rnd = new Random(13)
    val n = 7
    val series = Vector.tabulate(3)(i => Expl.of("a" -> s"v$i") -> Array.fill(n)(rnd.nextDouble() * 10))
    val total = Array.tabulate(n)(t => series.map(_._2(t)).sum)
    val c = ExplCube.fromSeries(Seq("a"), (0 until n).map(_.toString), total, series)
    val nd = new Ndcg(c)
    for (i <- 0 until n - 1; j <- 0 until n - 1) {
      val a = Segment(i, i + 1); val b = Segment(j, j + 1)
      val dab = nd.dist(a, top(c, a), b, top(c, b))
      val dba = nd.dist(b, top(c, b), a, top(c, a))
      assert(math.abs(dab - dba) < 1e-12, "symmetry")
      assert(dab >= 0.0 && dab <= 1.0, s"range: $dab")
    }
  }

  test("dist to itself is 0") {
    val c = cube
    val nd = new Ndcg(c)
    val s = Segment(0, 2)
    val t = top(c, s)
    assert(math.abs(nd.dist(s, t, s, t)) < 1e-12)
  }

  test("identical explanation structure in two segments gives distance ~0") {
    // two segments where all slices move in the same direction & proportion
    val series = Seq(
      Expl.of("a" -> "x") -> Array(0.0, 10.0, 20.0),
      Expl.of("a" -> "y") -> Array(0.0, 4.0, 8.0),
    )
    val c = ExplCube.fromSeries(Seq("a"), Seq("0", "1", "2"), Array(0.0, 14.0, 28.0), series)
    val nd = new Ndcg(c)
    val a = Segment(0, 1); val b = Segment(1, 2)
    assert(nd.dist(a, top(c, a), b, top(c, b)) < 1e-9)
  }

  test("opposite trends give maximal distance 1") {
    val series = Seq(
      Expl.of("a" -> "x") -> Array(0.0, 10.0, 0.0),
      Expl.of("a" -> "y") -> Array(0.0, 4.0, 0.0),
    )
    val c = ExplCube.fromSeries(Seq("a"), Seq("0", "1", "2"), Array(0.0, 14.0, 0.0), series)
    val nd = new Ndcg(c)
    val a = Segment(0, 1); val b = Segment(1, 2)
    // same explanations but all effects flip → every rectified relevance is 0
    assert(math.abs(nd.dist(a, top(c, a), b, top(c, b)) - 1.0) < 1e-9)
  }

  test("dist1 and dist2 are the two directional components of dist") {
    val c = cube
    val nd = new Ndcg(c)
    val cen = Segment(0, 3); val obj = Segment(1, 2)
    val tc = top(c, cen); val to = top(c, obj)
    val d1 = nd.dist1(cen, tc, to)
    val d2 = nd.dist2(obj, to, tc)
    val d = nd.dist(cen, tc, obj, to)
    assert(math.abs(d - (d1 + d2) / 2.0) < 1e-12)
  }

  test("the paper's Table 2 example: a 3-list with one flipped effect") {
    // Build segments where other's list has explanations with effects
    // +,+,- on itself but +,+,+ on the target: third entry is rectified out.
    val series = Seq(
      Expl.of("a" -> "e1") -> Array(0.0, 8.0, 16.0),
      Expl.of("a" -> "e2") -> Array(0.0, 6.0, 12.0),
      Expl.of("a" -> "e3") -> Array(0.0, 5.0, 2.0), // + on [0,1], - on [1,2]
    )
    val c = ExplCube.fromSeries(Seq("a"), Seq("0", "1", "2"), Array(0.0, 19.0, 30.0), series)
    val nd = new Ndcg(c)
    val pj = Segment(0, 1) // e1 +8, e2 +6, e3 +5
    val pi = Segment(1, 2) // e1 +8, e2 +6, e3 -3
    val tj = top(c, pj)
    val log2 = (x: Double) => math.log(x) / math.log(2)
    val want = 8.0 / log2(2) + 6.0 / log2(3) + 0.0 / log2(4)
    assert(math.abs(nd.dcgCross(pi, tj) - want) < 1e-9)
  }
}
