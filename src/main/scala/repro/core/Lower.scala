package repro.core

import org.apache.spark.sql.catalyst.expressions.{Alias, And, Attribute, EqualTo, Expression, Literal, NamedExpression}
import org.apache.spark.sql.catalyst.expressions.aggregate.Count
import org.apache.spark.sql.catalyst.plans.{Inner, LeftSemi}
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, JoinHint, Limit, LogicalPlan, Join => LJoin, Project => LProject}
import org.apache.spark.sql.catalyst.trees.TreeNodeTag
import org.apache.spark.sql.types.DataType

/** Lowers a [[Plan]] to resolved Catalyst operators — the one Spark
  * meaning of the IR, shared by the DataFrame [[Executor]] and the
  * Catalyst rule ([[repro.core.catalyst.YannakakisPlusRule]]).
  * [[SqlGen]] is the only other interpreter of the IR.
  *
  * Annotation `i` lives in an attribute named `__v{i}`, present on an
  * operator iff `op.annots(i)` — absent annotations are the semiring
  * identity (the paper's annotation pruning). The caller supplies the
  * scan leaves: each has the scan's logical attributes and its `__v{i}`
  * columns, with output attributes distinct from every other leaf (so
  * self-joins need no analyzer). The leaves' `__v{i}` types fix the
  * annotation types; a sum-like annotation no scan sources (COUNT(*))
  * takes its semiring's type. Operators are lowered once each, so a
  * shared operator is one sub-plan. The root is already grouped to the
  * output ([[Plan.result]]); [[result]] only finishes it.
  */
final class Lower(plan: Plan, scanLeaf: Scan => Lower.Node) {
  import Lower._

  private val cq = plan.cq
  private val memo = collection.mutable.Map.empty[Op, Node]

  private val annotType: Map[Int, DataType] =
    plan.ops.collect { case s: Scan => apply(s).annot.view.mapValues(_.dataType) }
      .flatten.toMap.withDefault(i => cq.aggs(i).semiring.dataType)

  /** The lowered operator (no finishing step). */
  def apply(op: Op): Node = memo.getOrElseUpdate(op, op match {
    case s: Scan      => scanLeaf(s)
    case p: Project   => project(p)
    case j: Join      => join(j)
    case sj: SemiJoin => semiJoin(sj)
  })

  /** The query result: the root ([[Plan.result]] has grouped it to the
    * output attributes), with columns `cq.output` followed by one per
    * aggregate, each annotation finished and named by its alias.
    */
  lazy val result: LogicalPlan = {
    val root = apply(plan.root)
    LProject(cq.output.map(root.attr) ++ cq.aggs.zipWithIndex.map { case (a, i) =>
      Alias(a.semiring.finishExpr(root.annot(i)), a.alias)()
    }, root.plan)
  }

  private def project(p: Project): Node = {
    val c = apply(p.child)
    if (p.dedupe) aggregate(c, p.keep)
    else { // pure column pruning (aggregation-elimination rule)
      val keep = p.keep.map(c.attr)
      Node(LProject(keep ++ c.annot.toVector.sortBy(_._1).map(_._2), c.plan),
        p.keep.zip(keep).toMap, c.annot)
    }
  }

  /** GROUP BY `keep`, folding each present annotation with its ⊕ and
    * materializing absent sum-like annotations as group counts; with no
    * annotations this is a duplicate-eliminating projection.
    */
  private def aggregate(c: Node, keep: Vector[String]): Node = {
    val keepAttrs = keep.map(c.attr)
    val folded = c.annot.toVector.sortBy(_._1).map { case (i, a) =>
      i -> cq.aggs(i).semiring.plusAgg(a).toAggregateExpression()
    }
    val counted = (cq.sumLikeAnnots -- c.annot.keySet).toVector.sorted.map { i =>
      i -> cq.aggs(i).semiring.countFold(
        Count(Literal(1)).toAggregateExpression(), annotType(i)).get
    }
    val annots = (folded ++ counted).map { case (i, e) => i -> Alias(e, v(i))() }
    // A distinct over no columns groups by a constant: a global aggregate
    // would return a row for an empty input.
    val grouping = if (keep.isEmpty && annots.isEmpty) Seq(Literal(1)) else keepAttrs
    val agg = Aggregate(grouping, keepAttrs ++ annots.map(_._2), c.plan, None)
    agg.setTagValue(Tag, true)
    Node(agg, keep.zip(keepAttrs).toMap, annots.map { case (i, a) => i -> a.toAttribute }.toMap)
  }

  private def join(j: Join): Node = {
    val (l, r) = (apply(j.left), apply(j.right))
    val attr = j.attrs.map(x => x -> l.attr.getOrElse(x, r.attr(x))).toMap
    val annots = (j.left.annots ++ j.right.annots).toVector.sorted.map { i =>
      val e: NamedExpression = (l.annot.get(i), r.annot.get(i)) match {
        case (Some(a), Some(b)) =>
          val times = cq.aggs(i).semiring.timesExpr.getOrElse(
            throw new IllegalStateException(
              s"${cq.name}: annotation ${cq.aggs(i).alias} present on both join sides " +
                "but its semiring is single-source"))
          Alias(times(a, b), v(i))()
        case (a, b) => a.orElse(b).get
      }
      i -> e
    }
    val joined = LJoin(l.plan, r.plan, Inner, condition(j.left, j.right, l, r), JoinHint.NONE)
    Node(LProject(j.attrs.map(attr) ++ annots.map(_._2), joined),
      attr, annots.map { case (i, e) => i -> e.toAttribute }.toMap)
  }

  private def semiJoin(sj: SemiJoin): Node = {
    val (l, r) = (apply(sj.left), apply(sj.right))
    // With no shared attributes, the left survives iff the right is non-empty.
    val right = if (sj.left.attrs.exists(sj.right.attrSet)) r.plan else Limit(Literal(1), r.plan)
    l.copy(plan = LJoin(l.plan, right, LeftSemi, condition(sj.left, sj.right, l, r), JoinHint.NONE))
  }

  /** Equalities on the attributes shared by a binary operator's inputs. */
  private def condition(left: Op, right: Op, l: Node, r: Node): Option[Expression] =
    left.attrs.filter(right.attrSet)
      .map(x => EqualTo(l.attr(x), r.attr(x)): Expression).reduceOption(And)
}

object Lower {

  /** A lowered operator: its plan, and the attributes holding each logical
    * attribute and each present annotation index.
    */
  final case class Node(plan: LogicalPlan, attr: Map[String, Attribute],
                        annot: Map[Int, Attribute])

  /** Marks every `Aggregate` the lowering builds, so the Catalyst rule
    * never rewrites its own output again.
    */
  val Tag: TreeNodeTag[Boolean] = TreeNodeTag[Boolean]("yannakakisPlus")

  def v(i: Int): String = s"__v$i"
}
