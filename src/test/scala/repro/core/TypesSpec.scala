package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TypesSpec extends AnyFunSuite {

  test("Expl.of sorts predicates by attribute so logically equal conjunctions are equal") {
    assert(Expl.of("b" -> "2", "a" -> "1") == Expl.of("a" -> "1", "b" -> "2"))
  }

  test("Expl.order counts conjuncts") {
    assert(Expl.root.order == 0)
    assert(Expl.of("a" -> "1").order == 1)
    assert(Expl.of("a" -> "1", "b" -> "2", "c" -> "3").order == 3)
  }

  test("Expl rejects duplicate attributes") {
    intercept[IllegalArgumentException](Expl(Vector(Pred("a", "1"), Pred("a", "2"))))
  }

  test("without drops exactly the named attribute") {
    val e = Expl.of("a" -> "1", "b" -> "2")
    assert(e.without("a") == Expl.of("b" -> "2"))
    assert(e.without("c") == e)
  }

  test("non-overlap requires disagreement on a shared attribute") {
    val a1 = Expl.of("a" -> "1")
    val a2 = Expl.of("a" -> "2")
    val a1b = Expl.of("a" -> "1", "b" -> "1")
    val b1 = Expl.of("b" -> "1")
    assert(a1.nonOverlapping(a2))
    assert(a2.nonOverlapping(a1b))
    assert(!a1.nonOverlapping(a1b)) // refinement overlaps
    assert(!a1.nonOverlapping(b1))  // disjoint attrs can co-occur in a record
    assert(!a1.nonOverlapping(a1))
  }

  test("nonOverlapping is symmetric (randomized)") {
    val rnd = new Random(1)
    def randExpl(): Expl = {
      val attrs = rnd.shuffle(List("a", "b", "c")).take(rnd.nextInt(4))
      Expl.of(attrs.map(a => a -> (rnd.nextInt(2) + 1).toString): _*)
    }
    for (_ <- 1 to 500) {
      val x = randExpl(); val y = randExpl()
      assert(x.nonOverlapping(y) == y.nonOverlapping(x), s"$x vs $y")
    }
  }

  test("Segment rejects degenerate ranges") {
    intercept[IllegalArgumentException](Segment(3, 3))
    intercept[IllegalArgumentException](Segment(4, 2))
    assert(Segment(2, 5).length == 3)
  }

  test("SegScheme exposes k, segments, and interior cuts") {
    val s = SegScheme(Vector(0, 3, 7, 9))
    assert(s.k == 3)
    assert(s.segments == Vector(Segment(0, 3), Segment(3, 7), Segment(7, 9)))
    assert(s.interior == Vector(3, 7))
  }

  test("SegScheme rejects unsorted or duplicated cuts") {
    intercept[IllegalArgumentException](SegScheme(Vector(0, 5, 3)))
    intercept[IllegalArgumentException](SegScheme(Vector(0, 3, 3, 9)))
    intercept[IllegalArgumentException](SegScheme(Vector(0)))
  }

  test("toString renders conjunctions in the paper's form") {
    assert(Expl.of("BV" -> "1750", "P" -> "6").toString == "BV=1750 & P=6")
    assert(Expl.root.toString == "⊤")
  }
}
