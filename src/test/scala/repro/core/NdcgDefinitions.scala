package repro.core

/** NDCG and the explanation distances of Section 4.1.3 as functions of two
  * segments and their lists, straight from the definitions: the references
  * that the cost kernel of [[SegmentCosts]] is checked against.
  * `import NdcgDefinitions._` adds them to [[Ndcg]].
  */
object NdcgDefinitions {

  implicit final class Definitions(private val nd: Ndcg) extends AnyVal {

    /** NDCG(target, E*(other)) — how well `other`'s explanations explain
      * `target` (Eq. 5). A flat target (IDCG = 0 forces DCG = 0) scores 1.
      */
    def ndcg(target: Segment, targetTop: TopIds, other: TopIds): Double =
      nd.ndcgGiven(nd.dcgSelf(target, targetTop), target, other)

    /** Symmetric explanation distance dist(P_i, P_j) (Eq. 6). */
    def dist(si: Segment, ti: TopIds, sj: Segment, tj: TopIds): Double =
      1.0 - (ndcg(si, ti, tj) + ndcg(sj, tj, ti)) / 2.0

    /** Directional variants used by the alternative metrics (Eq. 8 / Eq. 9):
      * dist1 keeps only how well the object's list explains the centroid;
      * dist2 keeps only how well the centroid's list explains the object.
      */
    def dist1(centroid: Segment, centroidTop: TopIds, objTop: TopIds): Double =
      1.0 - ndcg(centroid, centroidTop, objTop)

    def dist2(obj: Segment, objTop: TopIds, centroidTop: TopIds): Double =
      1.0 - ndcg(obj, objTop, centroidTop)
  }
}
