package repro.core.catalyst

import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate._
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join => LJoin, LogicalPlan, Project => LProject}
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.catalyst.trees.TreeNodeTag
import org.apache.spark.sql.types.DecimalType

import repro.core._
import repro.core.Lower // not catalyst.expressions.Lower

/** Catalyst integration of Yannakakis+: a `Rule[LogicalPlan]` (inject via
  * `spark.experimental.extraOptimizations`) that recognizes an
  * `Aggregate` over a tree of inner equi-joins, extracts the conjunctive
  * query, plans it with [[YannakakisPlus]], and lowers the Yannakakis+
  * DAG with [[Lower]] — the same lowering the DataFrame [[Executor]] uses
  * — into standard Catalyst nodes: `LeftSemi` joins for ⋉ and partial
  * `Aggregate`s for the ⊕-folding projections.
  *
  * Scope (anything else is left untouched):
  *  - joins: `Inner` with conjunctions of `attr = attr`;
  *  - grouping expressions: plain attribute references;
  *  - aggregates: non-distinct `COUNT(*)`/`COUNT(1)`, `SUM(e)`, `MIN(e)`,
  *    `MAX(e)` where `e`'s references live in one leaf (or, for SUM, a
  *    product of two single-leaf factors), with non-decimal types;
  *  - the extracted query must be acyclic and span ≥ 3 relations.
  *
  * The lowering tags the aggregates it builds so the fixed-point optimizer
  * batch is idempotent, and the rewrite is discarded unless the rebuilt
  * plan reproduces the original output schema exactly. A rewrite that
  * fails is logged and the plan left as it was.
  */
object YannakakisPlusRule extends Rule[LogicalPlan] with PredicateHelper {

  val Tag: TreeNodeTag[Boolean] = Lower.Tag

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformDown {
    case agg: Aggregate if agg.getTagValue(Tag).isEmpty =>
      Try(rewrite(agg)) match {
        case Success(rewritten) => rewritten.getOrElse(agg)
        case Failure(e) =>
          logWarning("Yannakakis+ rewrite failed; keeping the original plan", e)
          agg
      }
  }

  // ------------------------------------------------------------------ //

  /** One relation occurrence extracted from the logical plan. */
  private final case class Leaf(id: String, plan: LogicalPlan)

  private def rewrite(agg: Aggregate): Option[LogicalPlan] = {
    // 1. Flatten the inner-equi-join tree under the aggregate.
    val (leaves0, equalities) = collectJoins(agg.child)
    if (leaves0.size < 3) return None
    val leaves = leaves0.zipWithIndex.map { case (p, i) => Leaf(s"t$i", p) }

    // 2. Attribute equivalence classes from the equi-conditions.
    val leafOf: Map[ExprId, String] = (for {
      l <- leaves; a <- l.plan.output
    } yield a.exprId -> l.id).toMap
    if (equalities.exists { case (a, b) =>
      !leafOf.contains(a.exprId) || !leafOf.contains(b.exprId) }) return None

    val classOf = unionFind(equalities)
    def clsOf(a: Attribute): String =
      classOf.getOrElse(a.exprId, s"s_${a.exprId.id}")

    // Two attributes of one leaf in the same class would need an intra-
    // relation filter — out of scope.
    for (l <- leaves) {
      val cls = l.plan.output.map(clsOf)
      if (cls.distinct.size != cls.size) return None
    }

    // 3. Decompose the aggregate list.
    if (agg.groupingExpressions.exists(!_.isInstanceOf[AttributeReference]))
      return None
    val groupAttrs = agg.groupingExpressions.map(_.asInstanceOf[AttributeReference])
    if (groupAttrs.exists(a => !leafOf.contains(a.exprId))) return None

    val specs = agg.aggregateExpressions.map(ne => decompose(ne, groupAttrs, leafOf))
    if (specs.exists(_.isEmpty)) return None
    val outCols = specs.map(_.get)
    val aggCols = outCols.collect { case a: AggOut => a }

    // 4. Build the CQ over equivalence classes and plan it.
    val relevant: Map[String, Vector[Attribute]] = leaves.map { l =>
      val needed = l.plan.output.filter { a =>
        equalities.exists(e => e._1.exprId == a.exprId || e._2.exprId == a.exprId) ||
          groupAttrs.exists(_.exprId == a.exprId) ||
          aggCols.exists(_.sources.exists(_._2.references.exists(_.exprId == a.exprId)))
      }
      l.id -> needed.toVector
    }.toMap

    val atoms = leaves.map(l => Atom(l.id, relevant(l.id).map(clsOf).toVector))
    val aggSpecs = aggCols.zipWithIndex.map { case (a, i) =>
      AggSpec(s"a$i", a.semiring,
        a.sources.map { case (leafId, _) => leafId -> "catalyst" }.toMap)
    }
    val cq = CQ("catalyst", atoms.toVector,
      groupAttrs.map(clsOf).distinct.toVector, aggSpecs.toVector)
    if (!Hypergraph.isAcyclic(cq)) return None

    val irPlan = YannakakisPlus.plan(cq)

    // 5. Lower the IR DAG over the leaves, each projected to its
    //    relevant attributes plus the annotations it sources.
    val leafById = leaves.map(l => l.id -> l.plan).toMap
    def scanLeaf(s: Scan): Lower.Node = {
      val attrs = relevant(s.atomId)
      val annots = s.annots.toVector.sorted.map { i =>
        i -> Alias(aggCols(i).sources.find(_._1 == s.atomId).get._2, Lower.v(i))()
      }
      Lower.Node(LProject(attrs ++ annots.map(_._2), leafById(s.atomId)),
        attrs.map(a => clsOf(a) -> a).toMap,
        annots.map { case (i, al) => i -> al.toAttribute }.toMap)
    }
    val lowered = new Lower(irPlan, scanLeaf).result

    // 6. Rename the result's columns to the original output.
    val col = (cq.output ++ aggSpecs.map(_.alias)).zip(lowered.output).toMap
    val result = LProject(agg.aggregateExpressions.zip(outCols).map {
      case (ne, GroupOut(a)) => Alias(col(clsOf(a)), ne.name)(exprId = ne.exprId)
      case (ne, a: AggOut)   => Alias(col(s"a${aggCols.indexOf(a)}"), ne.name)(exprId = ne.exprId)
    }, lowered)

    // 7. Only accept schema-identical rewrites.
    val same = result.output.size == agg.output.size &&
      result.output.zip(agg.output).forall { case (n, o) =>
        n.exprId == o.exprId && n.name == o.name && n.dataType == o.dataType
      }
    if (same) Some(result) else None
  }

  /** Recursively collect leaves and equalities through inner equi-joins
    * and attribute-only projections.
    */
  private def collectJoins(plan: LogicalPlan)
      : (Vector[LogicalPlan], Vector[(Attribute, Attribute)]) = plan match {
    case LJoin(l, r, Inner, Some(cond), _) if equiPairs(cond).isDefined =>
      val (ll, le) = collectJoins(l)
      val (rl, re) = collectJoins(r)
      (ll ++ rl, le ++ re ++ equiPairs(cond).get)
    case p @ LProject(list, child)
        if list.forall(_.isInstanceOf[AttributeReference]) =>
      collectJoins(child)
    case other => (Vector(other), Vector.empty)
  }

  /** The conjuncts of `cond` as attribute pairs, if all are `attr = attr`. */
  private def equiPairs(cond: Expression): Option[Vector[(Attribute, Attribute)]] = {
    val conjuncts = splitConjunctivePredicates(cond)
    val eqs = conjuncts.collect {
      case EqualTo(a: AttributeReference, b: AttributeReference) => (a: Attribute, b: Attribute)
    }
    if (eqs.size == conjuncts.size) Some(eqs.toVector) else None
  }

  /** Union-find over equalities; returns exprId -> class name. */
  private def unionFind(eqs: Vector[(Attribute, Attribute)]): Map[ExprId, String] = {
    val parent = collection.mutable.Map.empty[ExprId, ExprId]
    def find(x: ExprId): ExprId = {
      val p = parent.getOrElse(x, x)
      if (p == x) x else { val r = find(p); parent(x) = r; r }
    }
    eqs.foreach { case (a, b) => parent(find(a.exprId)) = find(b.exprId) }
    val ids = eqs.flatMap { case (a, b) => Vector(a.exprId, b.exprId) }.distinct
    ids.map(id => id -> s"c_${find(id).id}").toMap
  }

  // ------------------------------------------------- aggregate decomp --

  private sealed trait OutCol
  private final case class GroupOut(attr: AttributeReference) extends OutCol

  /** One supported aggregate: its semiring and per-leaf source
    * expressions; the lowering folds and finishes it with the semiring.
    */
  private final case class AggOut(
      semiring: Semiring,
      sources: Vector[(String, Expression)]) // (leafId, annotation expr)
    extends OutCol

  private def decompose(ne: NamedExpression, groupAttrs: Seq[AttributeReference],
                        leafOf: Map[ExprId, String]): Option[OutCol] = ne match {
    case a: AttributeReference if groupAttrs.exists(_.exprId == a.exprId) =>
      Some(GroupOut(a))
    case Alias(a: AttributeReference, _) if groupAttrs.exists(_.exprId == a.exprId) =>
      Some(GroupOut(a))
    case Alias(AggregateExpression(fn, Complete, false, None, _), _) =>
      decomposeFn(fn, leafOf).map((AggOut.apply _).tupled)
    case _ => None
  }

  private def singleLeaf(e: Expression, leafOf: Map[ExprId, String]): Option[String] = {
    val ls = e.references.toSeq.flatMap(a => leafOf.get(a.exprId)).distinct
    if (ls.size == 1 && e.references.toSeq.forall(a => leafOf.contains(a.exprId))) Some(ls.head)
    else None
  }

  /** The semiring and annotation sources of a supported aggregate. Sources
    * carry the aggregate's own type (e.g. SUM over longs stays long), which
    * the lowering reads off the scan leaves.
    */
  private def decomposeFn(fn: AggregateFunction, leafOf: Map[ExprId, String])
      : Option[(Semiring, Vector[(String, Expression)])] = {
    def noDecimal(e: Expression): Boolean = !e.dataType.isInstanceOf[DecimalType]
    fn match {
      case Count(Seq(Literal(_, _))) =>
        Some((Semiring.CountProduct, Vector.empty))
      case Sum(e, _) if noDecimal(e) =>
        val tpe = Sum(e).dataType
        val sources: Option[Vector[(String, Expression)]] = singleLeaf(e, leafOf) match {
          case Some(l) => Some(Vector(l -> Cast(e, tpe)))
          case None => e match {
            case Multiply(x, y, _) =>
              (singleLeaf(x, leafOf), singleLeaf(y, leafOf)) match {
                case (Some(lx), Some(ly)) if lx != ly =>
                  Some(Vector(lx -> Cast(x, tpe), ly -> Cast(y, tpe)))
                case _ => None
              }
            case _ => None
          }
        }
        sources.map(Semiring.SumProduct -> _)
      case Min(e) if noDecimal(e) =>
        singleLeaf(e, leafOf).map(l => (Semiring.MinSum, Vector(l -> e)))
      case Max(e) if noDecimal(e) =>
        singleLeaf(e, leafOf).map(l => (Semiring.MaxSum, Vector(l -> e)))
      case _ => None
    }
  }
}

/** Convenience installer. */
object YannakakisPlusExtension {
  def install(spark: org.apache.spark.sql.SparkSession): Unit =
    if (!spark.experimental.extraOptimizations.contains(YannakakisPlusRule))
      spark.experimental.extraOptimizations =
        spark.experimental.extraOptimizations :+ YannakakisPlusRule

  def uninstall(spark: org.apache.spark.sql.SparkSession): Unit =
    spark.experimental.extraOptimizations =
      spark.experimental.extraOptimizations.filterNot(_ == YannakakisPlusRule)
}
