package repro.core

import repro.{Oracle, SparkSpec}
import Fixtures._

/** The classic Yannakakis baseline (paper §2.3): plan shape — exactly
  * 2(n-1) semi-joins and n-1 joins — and result correctness against the
  * DuckDB oracle across query classes.
  */
class YannakakisSpec extends SparkSpec {

  test("plan has 2(n-1) semi-joins and n-1 joins (Example 2.4 structure)") {
    val plan = Yannakakis.plan(q1, q1TreeT1)
    assert(plan.nSemiJoins == 10, plan.render)
    assert(plan.nJoins == 5, plan.render)
  }

  test("two-relation query: 2 semi-joins, 1 join (Example 3.1)") {
    val plan = Yannakakis.plan(q4)
    assert(plan.nSemiJoins == 2 && plan.nJoins == 1, plan.render)
  }

  private def check(cq: CQ, tree: Option[RootedTree] = None, seed: Long = 7): Unit = {
    val inst = TestData.instances(spark, cq, rows = 150, dom = 8, seed = seed)
    val plan = tree.map(Yannakakis.plan(cq, _)).getOrElse(Yannakakis.plan(cq))
    val res = Executor.run(plan, inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("Q1 on T1 matches oracle") { check(q1, Some(q1TreeT1)) }
  test("Q1 on T2 matches oracle") { check(q1, Some(q1TreeT2)) }
  test("Q2 (free-connex) matches oracle") { check(q2) }
  test("Q3 (relation-dominated) matches oracle") { check(q3) }
  test("Q4 matches oracle") { check(q4) }

  test("line-3 distinct projection matches oracle") {
    check(line(3, Vector("x1", "x4")))
  }

  test("line-4 grouped count matches oracle") {
    check(line(4, Vector("x1", "x5"), count()))
  }

  test("full-enumeration query matches oracle") {
    check(line(3, (1 to 4).map(i => s"x$i").toVector, Vector.empty,
      distinct = false), seed = 13)
  }

  test("empty relation yields empty grouped result") {
    val cq = line(3, Vector("x1"), count())
    val inst = TestData.withEmpty(spark, cq, "e2")
    val res = Executor.run(Yannakakis.plan(cq), inst)
    assert(res.df.count() == 0)
    res.cleanup()
  }

  test("global count over empty join returns 0 (SQL parity)") {
    val cq = line(2, Vector.empty, count())
    val inst = TestData.withEmpty(spark, cq, "e1")
    val res = Executor.run(Yannakakis.plan(cq), inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    val row = res.df.collect()(0)
    assert(row.getLong(0) == 0L)
    res.cleanup()
  }

  test("sum-product annotations across two atoms match oracle") {
    val cq = CQ("sp", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "w"))),
      Vector("x"),
      Vector(AggSpec("s", Semiring.SumProduct, Map("a" -> "v", "b" -> "w"))))
    check(cq)
  }

  test("min-sum annotation matches oracle") {
    val cq = CQ("ms", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "y"))),
      Vector("y"),
      Vector(AggSpec("m", Semiring.MinSum, Map("a" -> "v"))))
    check(cq)
  }

  test("max-sum annotation matches oracle") {
    val cq = CQ("mx", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "y"))),
      Vector("y"),
      Vector(AggSpec("m", Semiring.MaxSum, Map("a" -> "v"))))
    check(cq)
  }

  test("multiple aggregates evaluated simultaneously match oracle") {
    val cq = CQ("multi", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "y", "w"))),
      Vector("y"),
      Vector(
        AggSpec("cnt", Semiring.CountProduct),
        AggSpec("s", Semiring.SumProduct, Map("a" -> "v")),
        AggSpec("m", Semiring.MinSum, Map("b" -> "w"))))
    check(cq)
  }
}
