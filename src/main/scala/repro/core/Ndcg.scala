package repro.core

/** Variance metric families compared in Section 4.2.2. `Tse` is the paper's
  * proposed metric (Eq. 6 + Eq. 7); `Dist1`/`Dist2` keep the variance
  * structure but drop one direction of Eq. 6; `AllPair` keeps Eq. 6 but
  * averages over all object pairs (Eq. 10); the `squared` flag yields the
  * S-variants (squared distances inside the variance sum).
  */
sealed abstract class VarianceMetric(val name: String, val squared: Boolean)
object VarianceMetric {
  case object Tse      extends VarianceMetric("tse", false)
  case object Dist1    extends VarianceMetric("dist1", false)
  case object Dist2    extends VarianceMetric("dist2", false)
  case object AllPair  extends VarianceMetric("allpair", false)
  case object STse     extends VarianceMetric("Stse", true)
  case object SDist1   extends VarianceMetric("Sdist1", true)
  case object SDist2   extends VarianceMetric("Sdist2", true)
  case object SAllPair extends VarianceMetric("Sallpair", true)

  val all: Vector[VarianceMetric] = Vector(Tse, Dist1, Dist2, AllPair, STse, SDist1, SDist2, SAllPair)
}

/** NDCG between segments (Section 4.1.3), from which [[SegmentCosts]]
  * builds the distance of Eq. 6 and its two directions.
  *
  * A segment's top-explanation list is treated as a ranked document list; the
  * relevance of explanation E (ranked for segment P_j) towards segment P_i is
  * its diff score γ(E, P_i), *rectified to zero* when E's change effect
  * differs between the two segments (Table 2). NDCG normalizes by the DCG of
  * P_i's own list and is clamped to [0, 1].
  */
final class Ndcg(cube: ExplCube) {

  /** The rank discount 1 / log2(r + 2) of each rank r < ε a list can have. */
  private[core] val invLog: Array[Double] =
    Array.tabulate(cube.epsilon)(r => 1.0 / (math.log(r + 2.0) / math.log(2.0)))

  /** DCG of a segment's own list — rectification is trivially satisfied. */
  def dcgSelf(target: Segment, own: TopIds): Double = {
    var s = 0.0
    var r = 0
    while (r < own.size) { s += cube.gamma(own.ids(r), target) * invLog(r); r += 1 }
    s
  }

  /** DCG of `other`'s ranked list evaluated against `target` with rectified
    * relevance γ̄ (Eq. 3): zero when the effect flips between segments. The
    * change d = s(j) − s(i) is read once per id; τ = sign(d), γ = |d|.
    */
  def dcgCross(target: Segment, other: TopIds): Double = {
    var s = 0.0
    var r = 0
    while (r < other.size) {
      val series = cube.series(other.ids(r))
      val d = series(target.j) - series(target.i)
      if (math.signum(d).toInt == other.taus(r)) s += math.abs(d) * invLog(r)
      r += 1
    }
    s
  }

  /** NDCG(target, E*(other)) — how well `other`'s explanations explain
    * `target` (Eq. 5), given the target's IDCG, `dcgSelf(target, targetTop)`.
    * A flat target (IDCG = 0 forces DCG = 0) scores 1.
    */
  def ndcgGiven(idcg: Double, target: Segment, other: TopIds): Double =
    if (idcg <= 0.0) 1.0
    else math.min(1.0, dcgCross(target, other) / idcg)
}
