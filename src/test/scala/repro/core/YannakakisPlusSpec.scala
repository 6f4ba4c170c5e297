package repro.core

import repro.{Oracle, SparkSpec}
import Fixtures._

/** Yannakakis+ (paper §3): the paper's worked examples as plan-shape
  * assertions, plus oracle-checked correctness across query classes,
  * join trees, semirings, and rule configurations.
  */
class YannakakisPlusSpec extends SparkSpec {

  // ------------------------------------------------- plan structure ----

  test("Example 3.1: Q4 needs no semi-join, one aggregation-join") {
    val plan = YannakakisPlus.plan(q4)
    assert(plan.nSemiJoins == 0, plan.render)
    assert(plan.nJoins == 1, plan.render)
  }

  test("Example 3.15: Q1 on T1 uses 3 semi-joins vs Yannakakis' 10") {
    val plus = YannakakisPlus.plan(q1, q1TreeT1)
    val classic = Yannakakis.plan(q1, q1TreeT1)
    assert(plus.nSemiJoins == 3, plus.render)
    assert(classic.nSemiJoins == 10)
  }

  test("Example 3.2/3.13: free-connex Q2 on T2 uses semi-joins only in round 1") {
    val plan = YannakakisPlus.plan(q2, q1TreeT2)
    // Steps (4)-(5) of Example 3.2: semi-joins against R2 and R4 only.
    assert(plan.nSemiJoins == 2, plan.render)
  }

  test("Theorem 3.7: relation-dominated Q3 finishes in the first round (no second-round joins)") {
    val tree = JoinTree.defaultTree(q3) // rooted at dominating R1
    val plan = YannakakisPlus.plan(q3, tree)
    // Every aggregation-join absorbs a leaf; nothing is left to merge.
    assert(plan.nJoins == 5, plan.render)
    assert(plan.nSemiJoins == 0, plan.render)
  }

  test("relation-dominated star query needs no semi-joins at all") {
    val star = CQ("star", Vector(
      Atom("f", Vector("a", "b", "c")), Atom("d1", Vector("a")),
      Atom("d2", Vector("b")), Atom("d3", Vector("c"))),
      Vector("a", "b", "c"), count())
    val plan = YannakakisPlus.plan(star)
    assert(plan.nSemiJoins == 0, plan.render)
  }

  // ------------------------------------------------- correctness -------

  private def check(cq: CQ, tree: Option[RootedTree] = None,
                    cfg: RuleConfig = RuleConfig.default, seed: Long = 7): Unit = {
    val inst = TestData.instances(spark, cq, rows = 150, dom = 8, seed = seed)
    val t = tree.getOrElse(JoinTree.defaultTree(cq))
    val plan = YannakakisPlus.plan(cq, t, cfg)
    val res = Executor.run(plan, inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("Q1 on T1 matches oracle") { check(q1, Some(q1TreeT1)) }
  test("Q1 on T2 matches oracle") { check(q1, Some(q1TreeT2)) }
  test("Q2 on T2 matches oracle") { check(q2, Some(q1TreeT2)) }
  test("Q3 matches oracle") { check(q3) }
  test("Q4 matches oracle") { check(q4) }

  test("Q1 matches oracle on every enumerated rooted tree") {
    val inst = TestData.instances(spark, q1, rows = 80, dom = 6)
    JoinTree.enumerateRooted(q1).take(12).foreach { t =>
      val res = Executor.run(YannakakisPlus.plan(q1, t), inst)
      Oracle.assertEquivalent(res.df, q1, inst)
      res.cleanup()
    }
  }

  test("line-3 endpoint projection (non-free-connex) matches oracle") {
    check(line(3, Vector("x1", "x4")))
  }

  test("line-5 grouped count matches oracle") {
    check(line(5, Vector("x1"), count()))
  }

  test("line-4 endpoint count (non-free-connex) matches oracle") {
    check(line(4, Vector("x1", "x5"), count()))
  }

  test("full-enumeration query matches oracle") {
    check(line(3, (1 to 4).map(i => s"x$i").toVector, Vector.empty,
      distinct = false), seed = 23)
  }

  test("empty relation: grouped result is empty") {
    val cq = line(3, Vector("x1"), count())
    val inst = TestData.withEmpty(spark, cq, "e3")
    val res = Executor.run(YannakakisPlus.plan(cq), inst)
    assert(res.df.count() == 0)
    res.cleanup()
  }

  test("global count over empty join returns 0") {
    val cq = line(2, Vector.empty, count())
    val inst = TestData.withEmpty(spark, cq, "e2")
    val res = Executor.run(YannakakisPlus.plan(cq), inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("sum-product across two atoms matches oracle") {
    val cq = CQ("sp", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "w"))),
      Vector("x"),
      Vector(AggSpec("s", Semiring.SumProduct, Map("a" -> "v", "b" -> "w"))))
    check(cq)
  }

  test("max-product annotation matches oracle") {
    val cq = CQ("mp", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "y", "w"))),
      Vector("y"),
      Vector(AggSpec("m", Semiring.MaxProduct, Map("a" -> "v", "b" -> "w"))))
    check(cq)
  }

  test("multiple aggregates (count + sum + min) match oracle") {
    val cq = CQ("multi", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "y", "w")),
      Atom("c", Vector("y", "z"))),
      Vector("z"),
      Vector(
        AggSpec("cnt", Semiring.CountProduct),
        AggSpec("s", Semiring.SumProduct, Map("a" -> "v")),
        AggSpec("m", Semiring.MinSum, Map("b" -> "w"))))
    check(cq)
  }

  test("annotation-expression arithmetic matches oracle") {
    val cq = CQ("expr", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "w"))),
      Vector.empty,
      Vector(AggSpec("s", Semiring.SumProduct, Map("a" -> "v * 2 + 1", "b" -> "w"))))
    check(cq)
  }

  // ------------------------------------------------- rule configs ------

  test("primitive configuration (all rules off) still matches oracle") {
    check(q1, Some(q1TreeT1), RuleConfig.primitive)
    check(q2, Some(q1TreeT2), RuleConfig.primitive)
  }

  test("aggregation elimination with declared keys matches oracle") {
    // b(x) has unique key {x}: the π before the aggregation-join is pruned.
    val cq = CQ("keys", Vector(
      Atom("a", Vector("x", "y")), Atom("b", Vector("x"))),
      Vector("y"), count())
    val inst: CQ.Instances = Map(
      "a" -> TestData.atomDf(spark, cq.atom("a"), 200, 8, 3),
      "b" -> TestData.atomDf(spark, cq.atom("b"), 50, 8, 4).distinct())
    val cfg = RuleConfig.default.copy(uniqueKeys = Map("b" -> Set(Set("x"))))
    val plan = YannakakisPlus.plan(cq, JoinTree.defaultTree(cq), cfg)
    val res = Executor.run(plan, inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("semi-join elimination with referential integrity matches oracle and drops the semi-join") {
    // every a.x appears in b (a ⋉ b is a no-op)
    val cq = CQ("ri", Vector(
      Atom("a", Vector("x", "y")), Atom("b", Vector("x", "z"))),
      Vector("x", "y", "z"), count())
    val b = TestData.atomDf(spark, cq.atom("b"), 300, 8, 5)
    val a = TestData.atomDf(spark, cq.atom("a"), 200, 8, 6)
    val inst: CQ.Instances = Map("a" -> a, "b" -> b)
    val cfg = RuleConfig.default.copy(refIntegrity = Set(("a", "b"), ("b", "a")))
    // dom=8 over 200+ rows: both sides cover the full domain, so the
    // declared integrity facts actually hold.
    val tree = JoinTree.defaultTree(cq)
    val plan = YannakakisPlus.plan(cq, tree, cfg)
    val base = YannakakisPlus.plan(cq, tree, RuleConfig.default)
    assert(plan.nSemiJoins < base.nSemiJoins || base.nSemiJoins == 0)
    val res = Executor.run(plan, inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("annotation pruning off (Table 3 'Annot' ablation) matches oracle") {
    val cfg = RuleConfig.default.copy(annotationPruning = false)
    check(q1, Some(q1TreeT1), cfg)
  }

  test("self-join (same DataFrame bound to two atoms) matches oracle") {
    val cq = line(2, Vector("x1"), count())
    val e = TestData.atomDf(spark, Atom("e", Vector("a", "b")), 300, 15, 9)
    val inst: CQ.Instances = Map(
      "e1" -> e.toDF("x1", "x2"), "e2" -> e.toDF("x2", "x3"))
    val res = Executor.run(YannakakisPlus.plan(cq), inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("duplicate input rows are counted with multiplicity") {
    val cq = line(2, Vector.empty, count())
    val base = TestData.atomDf(spark, Atom("e", Vector("a", "b")), 100, 5, 10)
    val dup = base.union(base)
    val inst: CQ.Instances = Map("e1" -> dup.toDF("x1", "x2"),
      "e2" -> base.toDF("x2", "x3"))
    val res = Executor.run(YannakakisPlus.plan(cq), inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }
}
