package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Fixtures._

/** Plan-IR structure: attribute/annotation propagation and operator
  * accounting (paper Table 1 operators).
  */
class PlanSpec extends AnyFunSuite {

  private val cqSum = CQ("s", Vector(
    Atom("a", Vector("x", "y")), Atom("b", Vector("y", "z"))),
    Vector("x"),
    Vector(AggSpec("s", Semiring.SumProduct, Map("b" -> "z"))))

  test("scan materializes only sourced annotations") {
    assert(Plan.scan(cqSum, "a").annots.isEmpty)
    assert(Plan.scan(cqSum, "b").annots == Set(0))
  }

  test("scan with annotation pruning off materializes identities eagerly") {
    val cfg = RuleConfig.primitive
    assert(Plan.scan(cqSum, "a", cfg).annots == Set(0))
  }

  test("aggregating projection materializes sum-like annotations") {
    val p = Plan.project(cqSum, Plan.scan(cqSum, "a"), Vector("y"))
    assert(p.annots == Set(0))
    assert(p.attrs == Vector("y"))
  }

  test("identity-width projection is a no-op") {
    val s = Plan.scan(cqSum, "a")
    assert(Plan.project(cqSum, s, Vector("x", "y")) eq s)
  }

  test("prune keeps annotations without materializing new ones") {
    val s = Plan.scan(cqSum, "a")
    val p = Plan.prune(s, Vector("x"))
    assert(p.annots.isEmpty && p.attrs == Vector("x"))
  }

  test("join merges attributes and annotations") {
    val j = Join(Plan.scan(cqSum, "a"), Plan.scan(cqSum, "b"))
    assert(j.attrs == Vector("x", "y", "z"))
    assert(j.annots == Set(0))
  }

  test("semi-join keeps left attributes and annotations") {
    val sj = SemiJoin(Plan.scan(cqSum, "b"), Plan.scan(cqSum, "a"))
    assert(sj.attrs == Vector("y", "z") && sj.annots == Set(0))
  }

  test("idempotent annotations are not count-materialized by projections") {
    val cqMin = cqSum.copy(aggs = Vector(
      AggSpec("m", Semiring.MinString, Map("b" -> "z"))))
    val p = Plan.project(cqMin, Plan.scan(cqMin, "a"), Vector("y"))
    assert(p.annots.isEmpty)
  }

  test("result groups to the output unless the root already does") {
    val j = Join(Plan.scan(cqSum, "a"), Plan.scan(cqSum, "b"))
    val r = Plan.result(cqSum, j)
    assert(r == Project(j, Vector("x"), dedupe = true, Set(0)))
    assert(Plan.result(cqSum, r) eq r)
    // column pruning onto the output is no result: it keeps duplicates
    val pruned = Plan.prune(j, Vector("x"))
    assert(Plan.result(cqSum, pruned) == Project(pruned, Vector("x"), dedupe = true, Set(0)))
    val full = cqSum.copy(output = Vector("x", "y", "z"), aggs = Vector.empty, distinctOutput = false)
    assert(Plan.result(full, j) eq j)
  }

  test("ops deduplicates shared sub-DAGs and counts operators") {
    val s = Plan.scan(cqSum, "a")
    val plan = Plan(cqSum, Join(SemiJoin(Plan.scan(cqSum, "b"), s), s))
    assert(plan.ops.count(_.isInstanceOf[Scan]) == 2)
    assert(plan.nSemiJoins == 1 && plan.nJoins == 1)
  }

  test("render lists every operator once") {
    val plan = YannakakisPlus.plan(q1, q1TreeT1)
    val lines = plan.render.linesIterator.size
    assert(lines == plan.ops.size)
  }

  test("project validates the kept attributes") {
    intercept[IllegalArgumentException] {
      Project(Plan.scan(cqSum, "a"), Vector("nope"), dedupe = true, Set.empty)
    }
  }
}
