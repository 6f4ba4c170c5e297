package repro.core

import PlannerUtil._

/** The classic Yannakakis algorithm (paper §2.3) — the baseline:
  *
  *  1. post-order semi-join pass (`R_p ← R_p ⋉ R_i`),
  *  2. pre-order semi-join pass (`R_c ← R_c ⋉ R_i`),
  *  3. post-order aggregation-joins
  *     (`R_p ← (π_{A_p ∪ O} R_i) ⋈ R_p`, removing `R_i`),
  *  4. final `π_O`.
  *
  * Produces `2(n-1)` semi-joins and `n-1` joins for an n-relation query —
  * the hidden-constant overhead Yannakakis+ attacks. No rewrite rules are
  * applied: this is the vanilla algorithm as benchmarked in the paper's
  * "Yannakakis" rows.
  */
object Yannakakis {

  def plan(cq: CQ, tree: RootedTree): Plan = {
    val cfg = RuleConfig(aggElimination = false, semiJoinElimination = false,
      annotationPruning = true)
    val nodes = collection.mutable.Map.empty[String, Node]
    cq.atoms.foreach(a => nodes(a.id) = nodeFor(cq, a.id, cfg))
    val parent = tree.parents
    val post = tree.postOrder
    // each node's children, in tree order (post-order lists them so)
    val children = post.dropRight(1).groupBy(parent)

    // Pass 1: bottom-up semi-joins.
    post.dropRight(1).foreach { i =>
      val p = parent(i)
      nodes(p).op = SemiJoin(nodes(p).op, nodes(i).op)
    }
    // Pass 2: top-down semi-joins (pre-order = reversed post-order works:
    // each parent is visited before its children).
    post.reverse.foreach { i =>
      children.getOrElse(i, Vector.empty).foreach { c =>
        nodes(c).op = SemiJoin(nodes(c).op, nodes(i).op)
      }
    }
    // Pass 3: bottom-up aggregation-joins.
    post.dropRight(1).foreach { i =>
      val p = parent(i)
      val keep = nodes(i).attrs.filter(x =>
        nodes(p).attrSet(x) || cq.outputSet(x))
      val (proj, _) = projectedCopy(cq, cfg, nodes(i), keep)
      nodes(p).op = Join(nodes(p).op, proj)
    }
    val root = nodes(tree.atomId)
    Plan(cq, Plan.project(cq, root.op, root.attrs.filter(cq.outputSet)))
  }

  /** Plan over the default join tree. */
  def plan(cq: CQ): Plan = plan(cq, JoinTree.defaultTree(cq))
}
