package repro.core

/** Toggles and schema knowledge for the rule-based optimizer (paper §5.1).
  *
  * @param pkFk                the two rules that read key facts (Table 3's
  *                            "PK-FK" column): replace ⊕-aggregating
  *                            projections by pure column pruning when the
  *                            kept attributes contain a unique key
  *                            ("Aggregation Elimination"), and drop
  *                            semi-joins that referential integrity proves
  *                            to be no-ops ("Semi-join Elimination")
  * @param annotationPruning   keep identity annotations implicit (absent
  *                            columns) instead of materializing them at
  *                            every scan ("Pruning for Annotation");
  *                            turning this off reproduces the naive
  *                            rewriter of the Table 3 ablation
  * @param uniqueKeys          per atom id, attribute sets known unique in
  *                            the bound instance (PKs and other UNIQUEs)
  * @param refIntegrity        pairs `(a, b)` such that `a ⋉ b` is a no-op
  *                            on the bound instances — i.e. every tuple of
  *                            `a` has a join partner in `b` (PK–FK with no
  *                            filter on `b`)
  */
final case class RuleConfig(
    pkFk: Boolean = true,
    annotationPruning: Boolean = true,
    uniqueKeys: Map[String, Set[Set[String]]] = Map.empty,
    refIntegrity: Set[(String, String)] = Set.empty,
) {
  def keysOf(atomId: String): Set[Set[String]] =
    uniqueKeys.getOrElse(atomId, Set.empty)
}

object RuleConfig {
  /** All rules on (but no schema knowledge — rules fire only when keys /
    * integrity facts are declared).
    */
  val default: RuleConfig = RuleConfig()

  /** The Table 3 "Primitive" configuration: no rewrite rules at all. */
  val primitive: RuleConfig =
    RuleConfig(pkFk = false, annotationPruning = false)
}

/** Cardinality oracle used by the planners to order reductions and by the
  * cost-based optimizer to rank join trees. Implementations live in
  * `repro.opt` (exact / estimated / worst-case, paper §7.2.3).
  */
trait CardEstimator {
  /** Estimated output rows of `op`. */
  def estimate(op: Op): Double
}

object CardEstimator {
  /** Neutral estimator: every operator produces one row — reduces plan
    * choices to their deterministic tie-breakers.
    */
  object Flat extends CardEstimator {
    def estimate(op: Op): Double = 1.0
  }
}
