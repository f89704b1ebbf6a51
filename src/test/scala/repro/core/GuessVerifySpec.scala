package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GuessVerifySpec extends AnyFunSuite {

  def randomCube(rnd: Random, attrs: Int = 2, vals: Int = 4, n: Int = 5): ExplCube = {
    val attrNames = (0 until attrs).map(i => s"A$i")
    val combos = attrNames
      .map(a => (0 until vals).map(v => a -> s"v$v"))
      .foldLeft(Seq(Seq.empty[(String, String)]))((acc, col) => acc.flatMap(pfx => col.map(pfx :+ _)))
    val recs = for (c <- combos; t <- 0 until n) yield (c.toMap, t, rnd.nextDouble() * 20 - 10)
    ExplCube.fromRecords(attrNames, (0 until n).map(_.toString), recs, maxOrder = 3)
  }

  test("guess-and-verify matches the vanilla CA score on every segment of random cubes") {
    val rnd = new Random(5)
    for (trial <- 1 to 15) {
      val cube = randomCube(rnd)
      val gv = new GuessVerify(cube, 3, m0 = 4) // small m̄ to force escalations
      val ca = new CascadingAnalysts(cube, 3)
      for (i <- 0 until cube.n; j <- i + 1 until cube.n) {
        val seg = Segment(i, j)
        val a = gv.topIds(seg)
        val b = ca.topIds(seg)
        assert(math.abs(a.best(3) - b.best(3)) < 1e-9, s"trial $trial seg [$i,$j]")
        assert(math.abs(a.ids.map(cube.gamma(_, seg)).sum - b.ids.map(cube.gamma(_, seg)).sum) < 1e-9,
          s"selection totals differ [$i,$j]")
      }
    }
  }

  test("the Eq. 12 certificate is scale-free: O1 matches CA at measure scales 1e-12, 1 and 1e12") {
    for (scale <- Seq(1e-12, 1.0, 1e12)) {
      val rnd = new Random(47)
      for (trial <- 1 to 10) {
        val c = randomCube(rnd)
        val cube = new ExplCube(c.attrs, c.times, c.total.map(_ * scale), c.expls, c.series.map(_.map(_ * scale)))
        val gv = new GuessVerify(cube, 3, m0 = 1)
        val ca = new CascadingAnalysts(cube, 3)
        for (i <- 0 until cube.n; j <- i + 1 until cube.n) {
          val got = gv.topIds(Segment(i, j)).ids.map(cube.gamma(_, Segment(i, j))).sum
          val want = ca.topIds(Segment(i, j)).ids.map(cube.gamma(_, Segment(i, j))).sum
          assert(math.abs(got - want) <= 1e-9 * want, s"scale $scale trial $trial [$i,$j]: $got vs $want")
        }
      }
    }
  }

  test("returned ids reference the original cube and carry correct γ/τ") {
    val rnd = new Random(17)
    val cube = randomCube(rnd)
    val gv = new GuessVerify(cube, 3, m0 = 4)
    val seg = Segment(0, cube.n - 1)
    val top = gv.topIds(seg)
    assert(top.seg == seg)
    val gammas = CascadingAnalysts.pretty(cube, top).ranked.map(_.gamma)
    for (r <- top.ids.indices) {
      assert(gammas(r) == cube.gamma(top.ids(r), seg))
      assert(top.taus(r) == cube.tau(top.ids(r), seg))
    }
  }

  test("selections are pairwise non-overlapping and within the order bound") {
    val rnd = new Random(23)
    val cube = randomCube(rnd, attrs = 3, vals = 3)
    val gv = new GuessVerify(cube, 3, m0 = 6)
    val top = gv.topIds(Segment(0, cube.n - 1))
    val es = top.ids.map(cube.expls)
    for (i <- es.indices; j <- i + 1 until es.length) assert(es(i).nonOverlapping(es(j)))
    assert(es.forall(_.order <= 3))
  }

  test("tiny m̄ forces escalation but still reaches the optimum") {
    val rnd = new Random(31)
    val cube = randomCube(rnd, vals = 5)
    val gv = new GuessVerify(cube, 3, m0 = 1)
    val ca = new CascadingAnalysts(cube, 3)
    val seg = Segment(0, cube.n - 1)
    assert(math.abs(gv.topIds(seg).best(3) - ca.topIds(seg).best(3)) < 1e-9)
    assert(gv.maxMBarUsed > 1, "must have escalated beyond the initial guess")
  }

  test("m̄ ≥ ε degenerates to the unrestricted CA") {
    val rnd = new Random(37)
    val cube = randomCube(rnd)
    val gv = new GuessVerify(cube, 3, m0 = cube.epsilon * 2)
    val ca = new CascadingAnalysts(cube, 3)
    val seg = Segment(1, 3)
    assert(gv.topIds(seg).ids.toSeq == ca.topIds(seg).ids.toSeq)
  }

  test("caRuns counts invocations") {
    val rnd = new Random(41)
    val cube = randomCube(rnd)
    val gv = new GuessVerify(cube, 3)
    gv.topIds(Segment(0, 1))
    gv.topIds(Segment(1, 2))
    assert(gv.caRuns >= 2)
  }

  test("default m̄ is 10·m as used in the paper (m=3 → 30)") {
    val rnd = new Random(43)
    val cube = randomCube(rnd, vals = 6) // ε = 6+6+36 = 48 > 30
    val gv = new GuessVerify(cube, 3)
    gv.topIds(Segment(0, cube.n - 1))
    assert(gv.maxMBarUsed >= 30 || gv.maxMBarUsed == cube.epsilon)
  }
}
