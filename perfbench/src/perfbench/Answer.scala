package perfbench

import repro.core.{ExplCube, Explanation}

/** The comparable content of one explain answer: K, the cut positions, each
  * segment's ranked canonical explanation names with their change effects τ,
  * and the total variance of the chosen scheme.
  */
final case class Answer(
    k: Int,
    cuts: Vector[Int],
    cells: Vector[Vector[(String, Int)]],
    totalVariance: Double,
)

object Answer {

  /** Relative tolerance on the total variance; everything else is exact. */
  val VarianceRelTol = 1e-9

  def of(cube: ExplCube, e: Explanation): Answer =
    Answer(
      e.scheme.k,
      e.scheme.cuts,
      e.perSegment.map { case (_, top) =>
        top.ranked.map(r => (cube.canonicalExpl(cube.idOf(r.expl)).toString, r.tau))
      },
      e.totalVariance,
    )

  /** `None` when `got` matches `ref`, else a description of the first
    * difference.
    */
  def diff(ref: Answer, got: Answer): Option[String] =
    if (got.k != ref.k) Some(s"K ${got.k} != reference ${ref.k}")
    else if (got.cuts != ref.cuts) Some(s"cuts ${got.cuts} != reference ${ref.cuts}")
    else if (got.cells != ref.cells) {
      val s = got.cells.indices.find(i => got.cells(i) != ref.cells(i)).get
      Some(s"segment $s cells ${got.cells(s)} != reference ${ref.cells(s)}")
    } else {
      val (a, b) = (got.totalVariance, ref.totalVariance)
      if (a == b || math.abs(a - b) <= VarianceRelTol * math.max(math.abs(a), math.abs(b))) None
      else Some(s"total variance $a != reference $b")
    }
}
