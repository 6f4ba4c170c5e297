package repro.core

/** Shared plumbing for the two planners: per-node state (operator, known
  * unique keys, instance completeness) and rule-aware operator builders.
  */
private[repro] object PlannerUtil {

  /** Mutable planning state of one join-tree node.
    *
    * @param op       operator computing the node's current relation
    * @param keys     attribute sets known unique in the current relation
    * @param complete true iff no operation may have removed tuples of the
    *                 original instance (semi-join elimination predicate)
    */
  final class Node(var op: Op, var keys: Set[Set[String]], var complete: Boolean) {
    def attrs: Vector[String] = op.attrs
    def attrSet: Set[String] = op.attrSet
  }

  def nodeFor(cq: CQ, atomId: String, cfg: RuleConfig): Node =
    new Node(Plan.scan(cq, atomId, cfg), cfg.keysOf(atomId), complete = true)

  /** Keys surviving a projection onto `keep`; a deduplicating projection
    * additionally makes `keep` itself a key.
    */
  def keysAfterProject(keys: Set[Set[String]], keep: Set[String],
                       dedupe: Boolean): Set[Set[String]] = {
    val kept = keys.filter(_.subsetOf(keep))
    if (dedupe) kept + keep else kept
  }

  /** Keys of `l ⋈ r` (joined on their shared attributes): `l`'s keys
    * survive when the join attributes cover a key of `r` (each left tuple
    * then matches at most one right tuple), and vice versa.
    */
  def keysAfterJoin(lAttrs: Set[String], lKeys: Set[Set[String]],
                    rAttrs: Set[String], rKeys: Set[Set[String]]): Set[Set[String]] = {
    val common = lAttrs & rAttrs
    val lSurvive = rKeys.exists(_.subsetOf(common))
    val rSurvive = lKeys.exists(_.subsetOf(common))
    val paired = for (kl <- lKeys; kr <- rKeys) yield kl ++ kr
    (if (lSurvive) lKeys else Set.empty[Set[String]]) ++
      (if (rSurvive) rKeys else Set.empty[Set[String]]) ++ paired
  }

  /** Replaces `n`'s relation by its projection onto `keep`, built as by
    * [[projectedCopy]].
    */
  def projectNode(cq: CQ, cfg: RuleConfig, n: Node, keep: Vector[String]): Unit = {
    val (op, keys) = projectedCopy(cq, cfg, n, keep)
    n.op = op
    n.keys = keys
  }

  /** `π_keep` of a node's relation as a fresh operator, with its keys: the
    * node's own operator when `keep` is all of its attributes, pure column
    * pruning when `keep` holds a unique key (aggregation elimination, paper
    * §5.1: every group then has one row, so the child's annotations pass
    * through unchanged), else an aggregating projection. Also the *right
    * side* of an aggregation-join (`π_{A_p} R_i`).
    */
  def projectedCopy(cq: CQ, cfg: RuleConfig, n: Node, keep: Vector[String]): (Op, Set[Set[String]]) = {
    if (keep == n.attrs) (n.op, n.keys)
    else if (cfg.pkFk && n.keys.exists(_.subsetOf(keep.toSet)))
      (Plan.prune(n.op, keep), keysAfterProject(n.keys, keep.toSet, dedupe = false))
    else
      (Plan.project(cq, n.op, keep), keysAfterProject(n.keys, keep.toSet, dedupe = true))
  }
}
