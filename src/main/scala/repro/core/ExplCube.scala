package repro.core

/** In-memory explanation cube: the aggregated time series of every candidate
  * explanation plus the overall series (Section 5.2, module a).
  *
  * For a decomposable aggregate f = SUM, the absolute-change of Definition
  * 3.2 over a segment [t_i, t_j] collapses to an O(1) lookup on E's own
  * series: γ(E) = |s_E(j) − s_E(i)| and τ(E) = sign(s_E(j) − s_E(i)),
  * because removing σ_E R from both endpoint relations shifts each endpoint
  * aggregate by exactly s_E(t).
  *
  * @param attrs   explain-by attribute names (drill-down dimensions)
  * @param times   ordered time axis labels (for presentation only)
  * @param total   overall aggregated series, length n
  * @param expls   candidate explanations, index-aligned with `series`
  * @param series  per-explanation aggregated series, each of length n
  */
final class ExplCube(
    val attrs: Vector[String],
    val times: Vector[String],
    val total: Array[Double],
    val expls: Vector[Expl],
    val series: Array[Array[Double]],
) extends Serializable {
  require(series.length == expls.size, "expls/series misaligned")
  require(series.forall(_.length == total.length), "ragged series")
  ExplCube.requireFinite(total, "the total series")
  for (id <- series.indices) ExplCube.requireFinite(series(id), s"the series of ${expls(id)}")

  /** Number of points n in the aggregated time series. */
  def n: Int = total.length

  /** Number of candidate explanations ε. */
  def epsilon: Int = expls.size

  private val index: Map[Expl, Int] = expls.zipWithIndex.toMap

  def idOf(e: Expl): Int = index(e)
  def contains(e: Expl): Boolean = index.contains(e)

  /** Diff score γ(E, [i,j]) (Definition 3.2, absolute-change, f = SUM). */
  def gamma(explId: Int, seg: Segment): Double =
    math.abs(series(explId)(seg.j) - series(explId)(seg.i))

  /** Change effect τ(E, [i,j]) (Definition 3.3): +1 increase, -1 decrease. */
  def tau(explId: Int, seg: Segment): Int =
    math.signum(series(explId)(seg.j) - series(explId)(seg.i)).toInt

  /** Each explanation's rank among the names (`toString`) of the cube's
    * explanations; equal names share a rank, so ranks compare as the names
    * do. Built once per cube.
    */
  lazy val nameRank: Array[Int] = {
    val names = expls.map(_.toString)
    val byName = expls.indices.sortBy(names)
    val rank = new Array[Int](epsilon)
    for (k <- 1 until byName.size)
      rank(byName(k)) = rank(byName(k - 1)) + (if (names(byName(k)) == names(byName(k - 1))) 0 else 1)
    rank
  }

  /** The drill-down DAG as int arrays, built once per cube. */
  lazy val drillDown: ExplCube.DrillDown = {
    val attrPos = (attrs ++ expls.flatMap(_.attrs).distinct.sorted).distinct.zipWithIndex.toMap
    // (context slot, attribute position, child id) of every in-cube
    // one-predicate extension; slot 0 is the root, slot id + 1 is id.
    val edges = (for ((e, id) <- expls.iterator.zipWithIndex; p <- e.preds.iterator) yield {
      val parent = e.without(p.attr)
      (if (parent.order == 0) 0 else index.get(parent).fold(-1)(_ + 1), attrPos(p.attr), id)
    }).filter(_._1 >= 0).toArray.sorted
    val groups = edges.indices.filter(k =>
      k == 0 || edges(k)._1 != edges(k - 1)._1 || edges(k)._2 != edges(k - 1)._2).toArray
    val up = edges.collect { case (slot, _, id) if slot > 0 => (id, slot - 1) }.sorted
    new ExplCube.DrillDown(
      ExplCube.offsets(groups.map(edges(_)._1), epsilon + 1),
      groups :+ edges.length,
      edges.map(_._3),
      ExplCube.offsets(up.map(_._1), epsilon),
      up.map(_._2),
    )
  }

  /** Marks `id` and every in-cube sub-conjunction it drills down from (its
    * parents, their parents, …). A mask marked only through this routine is
    * closed under sub-conjunctions, so a marked id ends the walk.
    */
  def markWithAncestors(id: Int, mask: Array[Boolean]): Unit =
    if (!mask(id)) {
      mask(id) = true
      var p = drillDown.parentStart(id)
      while (p < drillDown.parentStart(id + 1)) { markWithAncestors(drillDown.parentIds(p), mask); p += 1 }
    }

  private def restrict(ids: Vector[Int]): ExplCube =
    new ExplCube(attrs, times, total, ids.map(expls), ids.map(series).toArray)

  /** Support filter (§7.5.1): drop E when every point of its series is below
    * `ratio` of the overall series (absolute values). Returns a new cube.
    * Survivors keep their sub-conjunctions so drill-down paths stay intact: a
    * surviving order-3 explanation must remain reachable through its order-1/2
    * ancestors even if those happen to be individually small (cannot occur for
    * SUM of non-negatives, but can for signed measures).
    */
  def filtered(ratio: Double): ExplCube = {
    val keep = new Array[Boolean](epsilon)
    for (id <- expls.indices if (0 until n).exists(t => math.abs(series(id)(t)) >= ratio * math.abs(total(t))))
      markWithAncestors(id, keep)
    restrict(expls.indices.filter(keep).toVector)
  }

  /** Deduplicate explanations whose series are identical (hierarchy
    * functional dependencies make e.g. `subcategory=x` and
    * `category=c & subcategory=x` cover the same records); keeps each
    * explanation that is its own [[canonicalExpl]], in id order.
    */
  def dedupIdenticalSeries: ExplCube =
    restrict(expls.indices.filter(id => canonicalExpl(id) == expls(id)).toVector)

  /** Canonical (minimal) equivalent of each explanation: when a hierarchy
    * functional dependency makes several conjunctions cover exactly the same
    * records (bitwise-identical series, guaranteed by the deterministic
    * accumulation order of the builders), the lowest-order lexicographically
    * smallest one is the canonical presentation form — e.g.
    * `category=cc & subcategory=internet_retail` renders as
    * `subcategory=internet_retail` (§7.1.2, S&P 500 hierarchy).
    */
  lazy val canonicalExpl: Vector[Expl] = {
    val byKey = scala.collection.mutable.HashMap.empty[Seq[Double], Int]
    val ord = Ordering.Tuple2[Int, String]
    for (id <- expls.indices) {
      val key: Seq[Double] = series(id).toSeq
      byKey.get(key) match {
        case None => byKey(key) = id
        case Some(prev) =>
          val a = expls(prev); val b = expls(id)
          if (ord.lt((b.order, b.toString), (a.order, a.toString))) byKey(key) = id
      }
    }
    Vector.tabulate(expls.size)(id => expls(byKey(series(id).toSeq)))
  }

  /** Centered moving average of window `w` applied to every series (the
    * paper smooths very fuzzy datasets before explaining, §7.4); window is
    * truncated at the edges so the series length is preserved.
    */
  def smoothed(w: Int): ExplCube = {
    require(w >= 1, "window must be positive")
    def sm(s: Array[Double]): Array[Double] = {
      val half = w / 2
      Array.tabulate(s.length) { t =>
        val lo = math.max(0, t - half)
        val hi = math.min(s.length - 1, t + half)
        var acc = 0.0
        var i = lo
        while (i <= hi) { acc += s(i); i += 1 }
        acc / (hi - lo + 1)
      }
    }
    new ExplCube(attrs, times, sm(total), expls, series.map(sm))
  }

  /** Restrict to the time index range [from, to] (both inclusive). */
  def slice(from: Int, to: Int): ExplCube = {
    require(0 <= from && from < to && to < n, s"bad slice [$from,$to]")
    new ExplCube(
      attrs,
      times.slice(from, to + 1),
      total.slice(from, to + 1),
      expls,
      series.map(_.slice(from, to + 1)),
    )
  }
}

object ExplCube {

  /** The drill-down DAG in compressed rows. Slot s is context id + 1 (0 is
    * the root, the empty conjunction). Its child groups g ∈ [groupStart(s),
    * groupStart(s + 1)), one per extending attribute in `attrs` order, list
    * the ids adding one predicate on that attribute, ascending:
    * childIds(childStart(g) until childStart(g + 1)). The parents of id, its
    * in-cube order ≥ 1 sub-conjunctions dropping one predicate, are
    * parentIds(parentStart(id) until parentStart(id + 1)).
    */
  final class DrillDown(val groupStart: Array[Int], val childStart: Array[Int], val childIds: Array[Int],
      val parentStart: Array[Int], val parentIds: Array[Int]) extends Serializable

  private def requireFinite(s: Array[Double], what: => String): Unit = {
    var t = 0
    while (t < s.length) {
      require(java.lang.Double.isFinite(s(t)), s"$what is not finite at time index $t: ${s(t)}")
      t += 1
    }
  }

  /** Row offsets for ascending keys in [0, rows): row r is [out(r), out(r + 1)). */
  private def offsets(sortedKeys: Array[Int], rows: Int): Array[Int] = {
    val out = new Array[Int](rows + 1)
    sortedKeys.foreach(k => out(k + 1) += 1)
    for (r <- 0 until rows) out(r + 1) += out(r)
    out
  }

  /** Build a cube directly from per-explanation series (driver-side path used
    * by tests and the synthetic generators; the Spark path lives in
    * [[repro.cube.ExplanationCube]]).
    */
  def fromSeries(
      attrs: Seq[String],
      times: Seq[String],
      total: Array[Double],
      perExpl: Seq[(Expl, Array[Double])],
  ): ExplCube = {
    val sorted = perExpl.sortBy { case (e, _) => (e.order, e.toString) }
    new ExplCube(attrs.toVector, times.toVector, total, sorted.map(_._1).toVector, sorted.map(_._2).toArray)
  }

  /** Build from raw records (attrValues per explain-by attr, time index,
    * measure); enumerates every conjunction up to `maxOrder` present in the
    * data and SUM-aggregates each one's series. Reference implementation —
    * quadratic-ish, meant for tests and small data.
    */
  def fromRecords(
      attrs: Seq[String],
      times: Seq[String],
      records: Seq[(Map[String, String], Int, Double)],
      maxOrder: Int = 3,
  ): ExplCube = {
    val n = times.size
    val total = new Array[Double](n)
    val acc = scala.collection.mutable.Map.empty[Expl, Array[Double]]
    for ((attrVals, t, m) <- records) {
      require(0 <= t && t < n, s"time index $t out of range")
      total(t) += m
      val present = attrs.filter(attrVals.contains).toVector
      for (k <- 1 to math.min(maxOrder, present.size); combo <- present.combinations(k)) {
        val e = Expl.of(combo.map(a => a -> attrVals(a)): _*)
        val s = acc.getOrElseUpdate(e, new Array[Double](n))
        s(t) += m
      }
    }
    fromSeries(attrs, times, total, acc.toSeq)
  }
}
