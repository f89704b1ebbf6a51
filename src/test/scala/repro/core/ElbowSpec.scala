package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ElbowSpec extends AnyFunSuite {

  test("a sharp elbow is found at the knee") {
    // steep drop until k=4, then flat
    val curve = Vector(100.0, 60.0, 30.0, 5.0, 4.5, 4.0, 3.8, 3.7, 3.6, 3.5)
    assert(Elbow.select(curve) == 4)
  }

  test("a linear curve has no distinguished elbow beyond the start") {
    val curve = Vector.tabulate(10)(k => 100.0 - 10.0 * k)
    // on a perfectly linear (normalized) descent the difference curve is flat
    // zero; the first K wins ties.
    assert(Elbow.select(curve) == 1)
  }

  test("flat curve selects K = 1") {
    assert(Elbow.select(Vector(5.0, 5.0, 5.0, 5.0)) == 1)
  }

  test("a flat curve selects K = 1 at every length, 2 points included") {
    for (len <- 1 to 4; v <- Seq(0.0, 2.5)) assert(Elbow.select(Vector.fill(len)(v)) == 1, s"$len points of $v")
  }

  test("size-1 and size-2 curves return their max K") {
    assert(Elbow.select(Vector(3.0)) == 1)
    assert(Elbow.select(Vector(3.0, 1.0)) == 2)
  }

  test("elbow at the second point of an L-shaped curve") {
    val curve = Vector(100.0, 2.0, 1.9, 1.8, 1.7)
    assert(Elbow.select(curve) == 2)
  }

  test("elbow is invariant to curve scaling") {
    val curve = Vector(100.0, 60.0, 30.0, 5.0, 4.0, 3.0)
    val scaled = curve.map(_ * 42.0)
    assert(Elbow.select(curve) == Elbow.select(scaled))
  }

  test("elbow is invariant to adding a constant") {
    val curve = Vector(100.0, 60.0, 30.0, 5.0, 4.0, 3.0)
    val shifted = curve.map(_ + 1000.0)
    assert(Elbow.select(curve) == Elbow.select(shifted))
  }

  test("paper-style K-variance curve (fast drop then plateau) picks a small K") {
    val curve = Vector(50.0, 28.0, 14.0, 7.0, 3.0, 1.4, 1.2, 1.1, 1.05, 1.0,
      0.95, 0.9, 0.87, 0.85, 0.83, 0.81, 0.8, 0.79, 0.78, 0.77)
    val k = Elbow.select(curve)
    assert(k >= 3 && k <= 8, s"expected small-K elbow, got $k")
  }
}
