package repro.core

/** A single equality predicate `attr = value` over an explain-by attribute. */
final case class Pred(attr: String, value: String) {
  override def toString: String = s"$attr=$value"
}

/** An explanation: a conjunction of predicates over distinct explain-by
  * attributes (Definition 3.1). Predicates are kept sorted by attribute name
  * so two logically equal conjunctions are `equals`-equal.
  */
final case class Expl(preds: Vector[Pred]) {
  require(preds.map(_.attr).distinct.size == preds.size, s"duplicate attribute in $preds")

  /** Number of conjuncts β (Definition 3.1). */
  def order: Int = preds.size

  def attrs: Set[String] = preds.iterator.map(_.attr).toSet

  def valueOf(attr: String): Option[String] = preds.find(_.attr == attr).map(_.value)

  /** The sub-conjunction dropping the predicate on `attr`. */
  def without(attr: String): Expl = Expl(preds.filterNot(_.attr == attr))

  /** Two explanations are non-overlapping iff they disagree on the value of
    * some shared attribute — then no record can satisfy both (Section 3.1).
    */
  def nonOverlapping(that: Expl): Boolean =
    preds.exists(p => that.valueOf(p.attr).exists(_ != p.value))

  override def toString: String = if (preds.isEmpty) "⊤" else preds.mkString(" & ")
}

object Expl {
  val root: Expl = Expl(Vector.empty)

  def of(kvs: (String, String)*): Expl =
    Expl(kvs.map { case (a, v) => Pred(a, v) }.sortBy(_.attr).toVector)
}

/** A time segment `[points(i), points(j)]` identified by the inclusive start
  * and end *indices* into the aggregated time series. Length = j - i objects.
  */
final case class Segment(i: Int, j: Int) {
  require(i < j, s"degenerate segment [$i,$j]")
  def length: Int = j - i
}

/** One ranked explanation inside a segment's top-m list: the explanation, its
  * diff score γ on that segment and its change effect τ (+1 / -1 / 0).
  */
final case class RankedExpl(expl: Expl, gamma: Double, tau: Int)

/** Top-m non-overlapping explanations of one segment, ranked by γ descending
  * (Definition 3.5); `best(q)` is the optimal at-most-q total score, a side
  * product of the CA dynamic program needed by the Eq. 12 certificate.
  */
final case class TopExpl(ranked: Vector[RankedExpl], best: Vector[Double])

/** Compact, id-based top-m list used on the hot path (Ndcg / K-Segmentation):
  * `ids` are cube explanation ids ranked by γ descending on `seg` (an id's γ
  * is the cube's `gamma(id, seg)`), `taus` their effects there; `best(q)` is
  * the CA DP's optimal at-most-q score (Eq. 12 certificate).
  */
final case class TopIds(seg: Segment, ids: Array[Int], taus: Array[Int], best: Array[Double]) {
  def size: Int = ids.length
}

/** A K-segmentation scheme: cut indices into the series, always including the
  * two endpoints 0 and n-1; segment k spans [cuts(k), cuts(k+1)].
  */
final case class SegScheme(cuts: Vector[Int]) {
  require(cuts.size >= 2 && cuts == cuts.sorted && cuts.distinct == cuts, s"bad cuts $cuts")
  def k: Int = cuts.size - 1
  def segments: Vector[Segment] =
    cuts.sliding(2).map { case Vector(a, b) => Segment(a, b) }.toVector
  /** Interior cut positions (excludes the two endpoints). */
  def interior: Vector[Int] = cuts.slice(1, cuts.size - 1)
}

/** Final output of TSExplain: the chosen scheme, its total variance, and the
  * top-m explanations of every segment (Definition 3.7), plus the K-variance
  * curve used by the elbow method.
  */
final case class Explanation(
    scheme: SegScheme,
    totalVariance: Double,
    perSegment: Vector[(Segment, TopExpl)],
    kVarianceCurve: Vector[(Int, Double)],
)
