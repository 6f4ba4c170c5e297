package repro.opt

import repro.core._

/** Cost-based plan enumeration (paper §5.2): enumerate the join trees,
  * prune with the paper's heuristics, plan each survivor with
  * Yannakakis+, and keep the cheapest.
  *
  * Pruning rules (quoted from §5.2):
  *  - for queries with output attributes, require the root node to
  *    contain output attributes;
  *  - prefer plans where the larger relations are at the top of the tree;
  *  - prioritize bushy plans with lower heights.
  *
  * Additionally, when the query is free-connex the search is restricted
  * to free-connex rooted trees (that is what preserves the O(N+M) bound,
  * Lemma 2.2). A relation-dominated query is free-connex, and a tree
  * rooted at a dominating relation is one of those trees; no further
  * restriction is made for it.
  */
object PlanEnumerator {

  /** At most this many unrooted join trees are rooted and ranked. For a
    * free-connex query it counts only trees with a free-connex rooting, so
    * the cap cannot drop every free-connex tree.
    */
  private val TreeCap = 200

  final case class Choice(tree: RootedTree, plan: Plan, cost: Double,
                          candidates: Int, planningMillis: Long)

  def best(cq: CQ, cfg: RuleConfig = RuleConfig.default,
           ce: CardEstimator = CardEstimator.Flat,
           stats: Map[String, AtomStats] = Map.empty,
           costCap: Int = 48): Choice = {
    val t0 = System.nanoTime()
    require(Hypergraph.isAcyclic(cq), s"${cq.name}: not acyclic — decompose with GHD first")
    val ids = cq.atoms.map(_.id)
    val nodes = ids.toSet
    val rootings = JoinTree.enumerateUnrooted(cq).map(e => ids.map(JoinTree.root(e, nodes, _)))
    val pool = (
      if (JoinTree.isFreeConnexQuery(cq))
        rootings.map(_.filter(JoinTree.isFreeConnex(cq, _))).filter(_.nonEmpty)
      else rootings
    ).take(TreeCap).flatten.toVector

    // §5.2 pruning heuristics.
    val rooted =
      if (cq.output.nonEmpty) {
        val withOut = pool.filter(t => (cq.atom(t.atomId).attrSet & cq.outputSet).nonEmpty)
        if (withOut.nonEmpty) withOut else pool
      } else pool
    def rootRows(t: RootedTree): Double =
      stats.get(t.atomId).map(_.rows).getOrElse(0.0)
    val pruned = rooted
      .sortBy(t => (t.height, -rootRows(t), t.render()))
      .take(costCap)

    val cm = new CostModel(ce)
    val scored = pruned.map { t =>
      val p = YannakakisPlus.plan(cq, t, cfg, ce)
      (t, p, cm.planCost(p))
    }
    val (tree, plan, cost) = scored.minBy(_._3)
    Choice(tree, plan, cost, pruned.size,
      (System.nanoTime() - t0) / 1000000)
  }
}
