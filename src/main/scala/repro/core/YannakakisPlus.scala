package repro.core

import PlannerUtil._

/** Yannakakis+ (paper §3): Algorithm 1 (first-round post-order traversal
  * interleaving aggregation-joins with semi-joins) followed by Algorithm 2
  * (second-round reductions over dangling-free / reducible relations).
  *
  * Rewrite rules (paper §5.1) are applied when enabled in the
  * [[RuleConfig]]; the [[CardEstimator]] orders second-round reductions.
  */
object YannakakisPlus {

  def plan(cq: CQ, tree: RootedTree,
           cfg: RuleConfig = RuleConfig.default,
           ce: CardEstimator = CardEstimator.Flat): Plan = {
    val state = new State(cq, tree, cfg, ce)
    state.firstRound()
    state.secondRound()
    state.result()
  }

  /** Plan over the default join tree. */
  def plan(cq: CQ): Plan = plan(cq, JoinTree.defaultTree(cq))

  // ------------------------------------------------------------------ //

  private final class State(cq: CQ, tree: RootedTree, cfg: RuleConfig,
                            ce: CardEstimator) {
    private val O = cq.outputSet
    private val keys = new Keys(cfg)
    private val nodes = collection.mutable.Map.empty[String, Node]
    cq.atoms.foreach(a => nodes(a.id) = nodeFor(cq, a.id, cfg, keys))

    // Mutable tree structure over the live nodes.
    private val parent = collection.mutable.Map.empty[String, String] ++= tree.parents
    private val children = collection.mutable.Map.empty[String, Set[String]]
    cq.atoms.foreach(a => children(a.id) = Set.empty)
    tree.parents.foreach { case (c, p) => children(p) += c }
    private var live: Vector[String] = tree.postOrder
    private val rootId = tree.atomId

    private def attrsOfOtherLive(id: String): Set[String] =
      live.filterNot(_ == id).flatMap(nodes(_).attrs).toSet

    /** Is `a ⋉ b` provably a no-op? Declared referential integrity of the
      * original atom pair, provided `b`'s relation is still complete.
      */
    private def semiJoinRedundant(a: String, b: String): Boolean =
      cfg.pkFk && cfg.refIntegrity((a, b)) && nodes(b).complete

    /** Algorithm 1: post-order first-round traversal. */
    def firstRound(): Unit = {
      tree.postOrder.dropRight(1).foreach { i =>
        val p = parent(i)
        val ni = nodes(i); val np = nodes(p)
        val isLeafNow = children(i).isEmpty
        if (isLeafNow && (ni.attrSet & O).subsetOf(np.attrSet)) {
          // Aggregation-join: R_p ← R_p ⋈ (π_{A_p} R_i); remove R_i.
          val keep = ni.attrs.filter(np.attrSet)
          np.op = Join(np.op, projectedCopy(cq, cfg, ni, keep))
          np.complete &&= ni.complete && cfg.refIntegrity((p, i))
          remove(i)
        } else {
          // R_i ← π_{O ∪ Ā_i} R_i; R_p ← R_p ⋉ R_i.
          val keep = ni.attrs.filter(x => O(x) || attrsOfOtherLive(i)(x))
          projectNode(cq, cfg, ni, keep)
          if (!semiJoinRedundant(p, i)) {
            np.op = SemiJoin(np.op, ni.op)
            np.complete = false
          }
        }
      }
      // Line 10: reduce the root's width too.
      val r = nodes(rootId)
      val keepR = r.attrs.filter(x => O(x) || attrsOfOtherLive(rootId)(x))
      projectNode(cq, cfg, r, keepR)
    }

    /** Algorithm 2 applied repeatedly: merge a dangling-free relation with
      * a reducible neighbor; when none is reducible, make a child
      * dangling-free with one semi-join (Lemma 3.14).
      */
    def secondRound(): Unit = {
      val danglingFree = collection.mutable.Set(rootId)
      while (live.size > 1) {
        val candidates = for {
          i <- live if danglingFree(i)
          j <- neighbors(i)
          if reducible(i, j)
        } yield (i, j)
        if (candidates.nonEmpty) {
          val (i, j) = candidates.minBy { case (a, b) =>
            (ce.estimate(Join(nodes(a).op, nodes(b).op)), a, b)
          }
          merge(i, j, danglingFree)
        } else {
          // No reducible pair: push dangling-freeness one level down,
          // preferring a leaf child (its parent is then reducible).
          val pick = (for {
            i <- live if danglingFree(i)
            j <- children(i).toVector.sorted if !danglingFree(j)
          } yield (i, j, children(j).isEmpty))
            .sortBy { case (i, j, leaf) => (!leaf, i, j) }
            .headOption.getOrElse(throw new IllegalStateException(
              s"${cq.name}: second round stuck — no dangling-free node with a child"))
          val (i, j, _) = (pick._1, pick._2, pick._3)
          nodes(j).op = SemiJoin(nodes(j).op, nodes(i).op)
          nodes(j).complete = false
          danglingFree += j
        }
      }
    }

    def result(): Plan = Plan(cq, Plan.result(cq, nodes(live.head).op))

    // ------------------------------------------------------- internals --

    private def neighbors(i: String): Vector[String] =
      (children(i) ++ parent.get(i).filter(live.contains)).toVector.sorted

    /** Is `j` reducible for `i` — do all of `i`'s *other* neighbors share
      * only output attributes with `i` (Definition 3.10)?
      */
    private def reducible(i: String, j: String): Boolean =
      neighbors(i).filterNot(_ == j).forall { k =>
        (nodes(k).attrSet & nodes(i).attrSet).subsetOf(O)
      }

    /** Algorithm 2 body: `R'_i ← π (R_i ⋈ R_j)`, keeping output attributes
      * and attributes still needed by the remaining relations (a subset of
      * the paper's `O ∪ (A_i Δ A_j)` — dropping attributes shared with no
      * survivor is an early ⊕-aggregation, valid by distributivity).
      */
    private def merge(i: String, j: String,
                      danglingFree: collection.mutable.Set[String]): Unit = {
      val ni = nodes(i); val nj = nodes(j)
      // Merge into whichever of the two is closer to the root so the
      // parent structure stays consistent.
      val (top, bot) = if (parent.get(j).contains(i)) (i, j) else (j, i)
      val keepSet = {
        val others = live.filterNot(x => x == i || x == j)
          .flatMap(nodes(_).attrs).toSet
        (ni.attrSet ++ nj.attrSet).filter(x => O(x) || others(x))
      }
      val joined = Join(ni.op, nj.op)
      val merged = new Node(joined, keys, ni.complete && nj.complete)
      projectNode(cq, cfg, merged, joined.attrs.filter(keepSet))
      nodes(top) = merged
      // Rewire the tree: top inherits bot's children.
      children(top) = (children(top) ++ children(bot)) - bot - top
      children(bot).foreach(c => parent(c) = top)
      parent.remove(bot)
      live = live.filterNot(_ == bot)
      nodes.remove(bot)
      danglingFree -= bot
      danglingFree += top
    }

    private def remove(i: String): Unit = {
      val p = parent(i)
      children(p) -= i
      parent.remove(i)
      live = live.filterNot(_ == i)
      nodes.remove(i)
    }
  }
}
