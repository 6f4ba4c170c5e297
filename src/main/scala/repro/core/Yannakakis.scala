package repro.core

/** The classic Yannakakis algorithm (paper §2.3) — the baseline:
  *
  *  1. post-order semi-join pass (`R_p ← R_p ⋉ R_i`),
  *  2. pre-order semi-join pass (`R_c ← R_c ⋉ R_i`),
  *  3. post-order aggregation-joins
  *     (`R_p ← (π_{A_p ∪ O} R_i) ⋈ R_p`, removing `R_i`),
  *  4. the result step `π⊕[O]` ([[Plan.result]]).
  *
  * Produces `2(n-1)` semi-joins and `n-1` joins for an n-relation query —
  * the hidden-constant overhead Yannakakis+ attacks. No rewrite rules are
  * applied: this is the vanilla algorithm as benchmarked in the paper's
  * "Yannakakis" rows.
  */
object Yannakakis {

  def plan(cq: CQ, tree: RootedTree): Plan = {
    val ops = collection.mutable.Map.empty[String, Op]
    cq.atoms.foreach(a => ops(a.id) = Plan.scan(cq, a.id))
    val parent = tree.parents
    val post = tree.postOrder
    // each node's children, in tree order (post-order lists them so)
    val children = post.dropRight(1).groupBy(parent)

    // Pass 1: bottom-up semi-joins.
    post.dropRight(1).foreach { i =>
      val p = parent(i)
      ops(p) = SemiJoin(ops(p), ops(i))
    }
    // Pass 2: top-down semi-joins (pre-order = reversed post-order works:
    // each parent is visited before its children).
    post.reverse.foreach { i =>
      children.getOrElse(i, Vector.empty).foreach { c =>
        ops(c) = SemiJoin(ops(c), ops(i))
      }
    }
    // Pass 3: bottom-up aggregation-joins.
    post.dropRight(1).foreach { i =>
      val p = parent(i)
      val keep = ops(i).attrs.filter(x => ops(p).attrSet(x) || cq.outputSet(x))
      ops(p) = Join(ops(p), Plan.project(cq, ops(i), keep))
    }
    Plan(cq, Plan.result(cq, ops(tree.atomId)))
  }

  /** Plan over the default join tree. */
  def plan(cq: CQ): Plan = plan(cq, JoinTree.defaultTree(cq))
}
