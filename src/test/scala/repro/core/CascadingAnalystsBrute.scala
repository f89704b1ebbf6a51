package repro.core

/** Exponential-time reference implementation of the same cascading search
  * space — no memoization, direct recursive enumeration of (select | drill ×
  * quota split). Used only by tests to validate the DP.
  */
object CascadingAnalystsBrute {
  def topExpl(cube: ExplCube, seg: Segment, m: Int, maxOrder: Int = 3): (Double, Set[Expl]) = {
    def go(id: Int, q: Int): (Double, Set[Expl]) = {
      if (q == 0) return (0.0, Set.empty)
      var best: (Double, Set[Expl]) = (0.0, Set.empty)
      if (id >= 0) {
        val g = cube.gamma(id, seg)
        if (g > best._1) best = (g, Set(cube.expls(id)))
      }
      val order = if (id < 0) 0 else cube.expls(id).order
      if (order < maxOrder) {
        for (childIds <- childGroups(cube, id)) {
          // enumerate all quota assignments to children
          def assign(idx: Int, left: Int): (Double, Set[Expl]) =
            if (idx == childIds.length || left == 0) (0.0, Set.empty)
            else {
              var acc: (Double, Set[Expl]) = assign(idx + 1, left)
              var w = 1
              while (w <= left) {
                val (s1, e1) = go(childIds(idx), w)
                val (s2, e2) = assign(idx + 1, left - w)
                if (s1 + s2 > acc._1) acc = (s1 + s2, e1 ++ e2)
                w += 1
              }
              acc
            }
          val cand = assign(0, q)
          if (cand._1 > best._1) best = cand
        }
      }
      best
    }
    go(-1, m)
  }

  /** The child groups of context `id` (-1 for the root) in the cube's
    * drill-down index, one array of child ids per extending attribute.
    */
  def childGroups(cube: ExplCube, id: Int): Seq[Array[Int]] = {
    val dd = cube.drillDown
    (dd.groupStart(id + 1) until dd.groupStart(id + 2))
      .map(g => dd.childIds.slice(dd.childStart(g), dd.childStart(g + 1)))
  }
}
