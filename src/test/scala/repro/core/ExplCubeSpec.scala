package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ExplCubeSpec extends AnyFunSuite {

  /** Small 2-attribute relation reused across tests. */
  def records: Seq[(Map[String, String], Int, Double)] = Seq(
    (Map("a" -> "x", "b" -> "1"), 0, 10.0),
    (Map("a" -> "x", "b" -> "2"), 0, 5.0),
    (Map("a" -> "y", "b" -> "1"), 0, 1.0),
    (Map("a" -> "x", "b" -> "1"), 1, 4.0),
    (Map("a" -> "y", "b" -> "1"), 1, 7.0),
    (Map("a" -> "y", "b" -> "2"), 2, 2.0),
    (Map("a" -> "x", "b" -> "2"), 2, 9.0),
  )

  def cube: ExplCube = ExplCube.fromRecords(Seq("a", "b"), Seq("t0", "t1", "t2"), records)

  test("fromRecords aggregates the total series") {
    assert(cube.total.toSeq == Seq(16.0, 11.0, 11.0))
  }

  test("fromRecords builds every conjunction present in the data") {
    val c = cube
    val names = c.expls.map(_.toString).toSet
    assert(names == Set("a=x", "a=y", "b=1", "b=2", "a=x & b=1", "a=x & b=2", "a=y & b=1", "a=y & b=2"))
  }

  test("per-explanation series aggregate the matching records with 0 for absent timestamps") {
    val c = cube
    assert(c.series(c.idOf(Expl.of("a" -> "x"))).toSeq == Seq(15.0, 4.0, 9.0))
    assert(c.series(c.idOf(Expl.of("a" -> "y", "b" -> "2"))).toSeq == Seq(0.0, 0.0, 2.0))
  }

  test("gamma matches the literal Definition 3.2 on every explanation and segment") {
    val c = cube
    def f(recs: Seq[(Map[String, String], Int, Double)], t: Int): Double =
      recs.filter(_._2 == t).map(_._3).sum
    def satisfies(vals: Map[String, String], e: Expl): Boolean =
      e.preds.forall(p => vals.get(p.attr).contains(p.value))
    for {
      id <- c.expls.indices
      i <- 0 until c.n
      j <- i + 1 until c.n
    } {
      val e = c.expls(id)
      val without = records.filterNot(r => satisfies(r._1, e))
      val overall = f(records, j) - f(records, i)
      val excluded = f(without, j) - f(without, i)
      val literal = math.abs(overall - excluded)
      assert(math.abs(c.gamma(id, Segment(i, j)) - literal) < 1e-9, s"γ($e, [$i,$j])")
      assert(c.tau(id, Segment(i, j)) == math.signum(overall - excluded).toInt, s"τ($e, [$i,$j])")
    }
  }

  test("children adjacency links each conjunction to its one-attribute extensions") {
    val c = cube
    def kids(id: Int) = CascadingAnalystsBrute.childGroups(c, id).map(_.map(c.expls).map(_.toString).toSeq)
    assert(kids(-1) == Seq(Seq("a=x", "a=y"), Seq("b=1", "b=2")))
    val ax = c.idOf(Expl.of("a" -> "x"))
    assert(kids(ax) == Seq(Seq("a=x & b=1", "a=x & b=2")))
  }

  test("drill-down index and parent arrays agree with the Expl definitions") {
    val rnd = new Random(3)
    val attrs = Seq("c", "a", "b") // not alphabetical: groups follow `attrs`
    for (trial <- 1 to 10) {
      val recs = for (_ <- 1 to 12; t <- 0 until 2) yield {
        val vals = attrs.filter(_ => rnd.nextDouble() < 0.8).map(a => a -> s"v${rnd.nextInt(3)}").toMap
        (vals, t, rnd.nextDouble() * 10)
      }
      val c = ExplCube.fromRecords(attrs, Seq("0", "1"), recs)
      val dd = c.drillDown
      for (ctx <- -1 until c.epsilon) {
        val ctxExpl = if (ctx < 0) Expl.root else c.expls(ctx)
        val groups = CascadingAnalystsBrute.childGroups(c, ctx)
        val groupAttrs = groups.map { g =>
          assert(g.nonEmpty && g.toSeq == g.toSeq.sorted, s"trial $trial ctx $ctxExpl")
          val added = g.map(k => (c.expls(k).attrs -- ctxExpl.attrs).toSeq).distinct
          assert(added.length == 1 && added.head.size == 1, s"one attribute per group under $ctxExpl")
          for (k <- g) assert(c.expls(k).without(added.head.head) == ctxExpl)
          attrs.indexOf(added.head.head)
        }
        assert(groupAttrs == groupAttrs.sorted.distinct, s"groups in attrs order under $ctxExpl")
        val want = c.expls.indices.filter(k => c.expls(k).preds.exists(p => c.expls(k).without(p.attr) == ctxExpl))
        assert(groups.flatten.sorted == want, s"children of $ctxExpl")
      }
      for (id <- c.expls.indices) {
        val e = c.expls(id)
        val parents = dd.parentIds.slice(dd.parentStart(id), dd.parentStart(id + 1)).toSeq
        val want = e.preds.map(p => e.without(p.attr)).filter(p => p.order > 0 && c.contains(p)).map(c.idOf).sorted
        assert(parents == want, s"parents of $e")
        val mask = new Array[Boolean](c.epsilon)
        c.markWithAncestors(id, mask)
        val subs = (1 to e.order).flatMap(k => e.preds.combinations(k).map(ps => Expl(ps))).filter(c.contains)
        assert(c.expls.indices.filter(mask) == subs.map(c.idOf).sorted, s"closure of $e")
      }
    }
  }

  test("fromRecords honors maxOrder") {
    val c1 = ExplCube.fromRecords(Seq("a", "b"), Seq("t0", "t1", "t2"), records, maxOrder = 1)
    assert(c1.expls.forall(_.order == 1))
    assert(c1.expls.size == 4)
  }

  test("filtered drops low-support explanations and keeps the rest intact") {
    val n = 4
    val total = Array(100.0, 100.0, 100.0, 100.0)
    val big = Expl.of("a" -> "big") -> Array(60.0, 60.0, 60.0, 60.0)
    val small = Expl.of("a" -> "tiny") -> Array(0.001, 0.002, 0.001, 0.003)
    val c = ExplCube.fromSeries(Seq("a"), (0 until n).map(_.toString), total, Seq(big, small))
    val f = c.filtered(0.001)
    assert(f.expls.map(_.toString) == Vector("a=big"))
  }

  test("filtered keeps an explanation if any single point is significant") {
    val total = Array(100.0, 100.0)
    val spiky = Expl.of("a" -> "s") -> Array(0.0, 50.0)
    val c = ExplCube.fromSeries(Seq("a"), Seq("0", "1"), total, Seq(spiky))
    assert(c.filtered(0.001).epsilon == 1)
  }

  test("filtered preserves drill-down ancestors of surviving conjunctions") {
    // signed measure: the order-1 parent nets to ~0 but its order-2 child is big
    val total = Array(100.0, 100.0)
    val parent = Expl.of("a" -> "x") -> Array(0.0001, 0.0001) // tiny net
    val child = Expl.of("a" -> "x", "b" -> "1") -> Array(50.0, 50.0)
    val c = ExplCube.fromSeries(Seq("a", "b"), Seq("0", "1"), total, Seq(parent, child))
    val f = c.filtered(0.001)
    assert(f.contains(Expl.of("a" -> "x")), "ancestor must survive for drill-down reachability")
    assert(f.contains(Expl.of("a" -> "x", "b" -> "1")))
  }

  test("dedupIdenticalSeries keeps the lowest-order representative") {
    val total = Array(10.0, 20.0)
    val sub = Expl.of("sub" -> "s1") -> Array(10.0, 20.0)
    val pair = Expl.of("cat" -> "c1", "sub" -> "s1") -> Array(10.0, 20.0)
    val cat = Expl.of("cat" -> "c1") -> Array(10.0, 20.0)
    val c = ExplCube.fromSeries(Seq("cat", "sub"), Seq("0", "1"), total, Seq(sub, pair, cat))
    val d = c.dedupIdenticalSeries
    assert(d.epsilon == 1)
    assert(d.expls.head.order == 1)
  }

  test("dedupIdenticalSeries keeps distinct series apart") {
    val total = Array(10.0, 20.0)
    val a = Expl.of("cat" -> "c1") -> Array(10.0, 20.0)
    val b = Expl.of("cat" -> "c2") -> Array(10.0, 19.0)
    val c = ExplCube.fromSeries(Seq("cat"), Seq("0", "1"), total, Seq(a, b))
    assert(c.dedupIdenticalSeries.epsilon == 2)
  }

  test("smoothed computes a truncated centered moving average") {
    val total = Array(0.0, 3.0, 6.0, 9.0)
    val c = ExplCube.fromSeries(Seq("a"), (0 until 4).map(_.toString), total,
      Seq(Expl.of("a" -> "x") -> Array(0.0, 3.0, 6.0, 9.0)))
    val s = c.smoothed(3)
    assert(s.total.toSeq == Seq(1.5, 3.0, 6.0, 7.5))
  }

  test("smoothed with window 1 is the identity") {
    val c = cube
    assert(c.smoothed(1).total.toSeq == c.total.toSeq)
  }

  test("slice restricts the time axis of every series") {
    val c = cube
    val s = c.slice(1, 2)
    assert(s.n == 2)
    assert(s.total.toSeq == Seq(11.0, 11.0))
    assert(s.times == Vector("t1", "t2"))
    assert(s.series(s.idOf(Expl.of("a" -> "x"))).toSeq == Seq(4.0, 9.0))
  }

  test("slice rejects bad ranges") {
    intercept[IllegalArgumentException](cube.slice(2, 2))
    intercept[IllegalArgumentException](cube.slice(-1, 2))
  }

  test("fromSeries sorts explanations deterministically (order, then name)") {
    val total = Array(1.0)
    val c = ExplCube.fromSeries(Seq("a", "b"), Seq("0"), total, Seq(
      Expl.of("a" -> "z", "b" -> "1") -> Array(1.0),
      Expl.of("a" -> "z") -> Array(1.0),
      Expl.of("a" -> "a") -> Array(1.0),
    ))
    assert(c.expls.map(_.toString) == Vector("a=a", "a=z", "a=z & b=1"))
  }

  test("gamma/tau on a random cube equal series end-point differences") {
    val rnd = new Random(3)
    val n = 8
    val series = Vector.tabulate(5)(i => Expl.of("a" -> s"v$i") -> Array.fill(n)(rnd.nextDouble() * 100 - 50))
    val total = Array.tabulate(n)(t => series.map(_._2(t)).sum)
    val c = ExplCube.fromSeries(Seq("a"), (0 until n).map(_.toString), total, series)
    for (id <- 0 until c.epsilon; i <- 0 until n; j <- i + 1 until n) {
      val d = c.series(id)(j) - c.series(id)(i)
      assert(c.gamma(id, Segment(i, j)) == math.abs(d))
      assert(c.tau(id, Segment(i, j)) == math.signum(d).toInt)
    }
  }
}
