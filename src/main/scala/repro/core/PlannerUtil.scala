package repro.core

/** Plumbing of the [[YannakakisPlus]] planner: per-node state (operator
  * and instance completeness), the unique keys of an operator and
  * rule-aware operator builders. [[Keys]] also serves `WorstCaseCE`.
  */
private[repro] object PlannerUtil {

  /** Mutable planning state of one join-tree node.
    *
    * @param op       operator computing the node's current relation
    * @param keysOf   the unique keys of an operator
    * @param complete true iff no operation may have removed tuples of the
    *                 original instance (semi-join elimination predicate)
    */
  final class Node(var op: Op, keysOf: Keys, var complete: Boolean) {
    def attrs: Vector[String] = op.attrs
    def attrSet: Set[String] = op.attrSet
    /** Attribute sets known unique in the current relation. */
    def keys: Set[Set[String]] = keysOf(op)
  }

  def nodeFor(cq: CQ, atomId: String, cfg: RuleConfig, keys: Keys): Node =
    new Node(Plan.scan(cq, atomId, cfg), keys, complete = true)

  /** The attribute sets known unique in an operator's relation: a scan's
    * declared keys (`cfg`), carried up through projections, joins and
    * semi-joins. Memoized per operator.
    */
  final class Keys(cfg: RuleConfig) {
    private val memo = collection.mutable.Map.empty[Op, Set[Set[String]]]

    def apply(op: Op): Set[Set[String]] = memo.getOrElseUpdate(op, op match {
      case s: Scan      => cfg.keysOf(s.atomId)
      case p: Project   => keysAfterProject(apply(p.child), p.keep.toSet, p.dedupe)
      case j: Join      =>
        keysAfterJoin(j.left.attrSet, apply(j.left), j.right.attrSet, apply(j.right))
      case sj: SemiJoin => apply(sj.left)
    })
  }

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
  def projectNode(cq: CQ, cfg: RuleConfig, n: Node, keep: Vector[String]): Unit =
    n.op = projectedCopy(cq, cfg, n, keep)

  /** `π_keep` of a node's relation as a fresh operator: the node's own
    * operator when `keep` is all of its attributes, pure column pruning
    * when `keep` holds a unique key (aggregation elimination, paper §5.1:
    * every group then has one row, so the child's annotations pass through
    * unchanged), else an aggregating projection. Also the *right side* of
    * an aggregation-join (`π_{A_p} R_i`).
    */
  def projectedCopy(cq: CQ, cfg: RuleConfig, n: Node, keep: Vector[String]): Op =
    if (keep == n.attrs) n.op
    else if (cfg.pkFk && n.keys.exists(_.subsetOf(keep.toSet))) Plan.prune(n.op, keep)
    else Plan.project(cq, n.op, keep)
}
