package repro.duck

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.core.Fixtures._
import repro.core.TestData

/** The DuckDB deployment backend (paper §6): typed loading, native
  * execution, and rewritten-script execution agree with the Spark
  * executor.
  */
class DuckRunnerSpec extends SparkSpec {

  /** The Spark executor's Yannakakis+ result as the oracle compares it. */
  private def canonSpark(cq: CQ, inst: CQ.Instances): Map[Seq[String], Int] = {
    val res = Executor.run(YannakakisPlus.plan(cq), inst)
    try Oracle.canon(res.df)
    finally res.cleanup()
  }

  private def checkBoth(cq: CQ, inst: CQ.Instances): Unit = {
    val d = new DuckRunner
    try {
      d.loadInstances(inst)
      val want = canonSpark(cq, inst)
      val script = SqlGen.script(YannakakisPlus.plan(cq))
      assert(Oracle.canon(d.fetch(script.finalQuery)) == want, "duck script vs spark executor")
      assert(Oracle.canon(d.fetch(cq.flatSql(duck = false))) == want, "duck native vs spark executor")
    } finally d.close()
  }

  test("Q1 (grouped count): duck native + duck script agree with Spark") {
    checkBoth(q1, TestData.instances(spark, q1, rows = 120, dom = 6))
  }

  test("Q3 (relation-dominated): duck native + duck script agree with Spark") {
    checkBoth(q3, TestData.instances(spark, q3, rows = 120, dom = 6))
  }

  test("sum-product query: duck native + duck script agree with Spark") {
    val cq = CQ("sp", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "w"))),
      Vector("x"),
      Vector(AggSpec("s", Semiring.SumProduct, Map("a" -> "v", "b" -> "w"))))
    checkBoth(cq, TestData.instances(spark, cq, rows = 150, dom = 8))
  }

  test("a semi-join on two attributes runs as a DuckDB script and matches the oracle") {
    val cq = CQ("sj2", Vector(
      Atom("a", Vector("x", "y", "z")), Atom("b", Vector("x", "y", "w"))),
      Vector("z"), count())
    // a ⋉_{x,y} b, then joined with π_{x,y} b (its count annotation)
    val plan = Plan(cq, Plan.result(cq, Join(
      SemiJoin(Plan.scan(cq, "a"), Plan.scan(cq, "b")),
      Plan.project(cq, Plan.scan(cq, "b"), Vector("x", "y")))))
    val inst = TestData.instances(spark, cq, rows = 150, dom = 4)
    val d = new DuckRunner
    try {
      d.loadInstances(inst)
      val (n, _) = d.runScript(plan)
      val scriptRows = Oracle.canon(d.fetch(SqlGen.script(plan).finalQuery))
      val native = d.fetch(cq.flatSql(duck = false))
      assert(n == native._2.size && n > 0)
      assert(scriptRows == Oracle.canon(native), "duck script vs duck native")
      assert(scriptRows == canonSpark(cq, inst), "duck script vs spark executor")
      val res = Executor.run(plan, inst)
      try Oracle.assertEquivalent(res.df, cq, inst)
      finally res.cleanup()
    } finally d.close()
  }

  test("distinct projection onto no attributes: duck native + duck script agree with Spark") {
    // Plus projects b onto no attributes: it only has to be non-empty.
    assert(YannakakisPlus.plan(crossDistinct).ops.exists {
      case p: Project => p.dedupe && p.keep.isEmpty
      case _          => false
    })
    checkBoth(crossDistinct, TestData.instances(spark, crossDistinct, rows = 30, dom = 6))
    checkBoth(crossDistinct, TestData.withEmpty(spark, crossDistinct, "b", rows = 30, dom = 6))
  }

  test("a script that fails part-way leaves none of its views behind") {
    val cq = CQ("partial", Vector(
      Atom("a", Vector("x", "z")), Atom("b", Vector("x", "w"))),
      Vector("z"), count())
    // a's scan view is created before b's, whose table is never loaded
    val plan = Plan(cq, Join(
      SemiJoin(Plan.scan(cq, "a"), Plan.scan(cq, "b")),
      Plan.project(cq, Plan.scan(cq, "b"), Vector("x"))))
    val inst = TestData.instances(spark, cq, rows = 50, dom = 4)
    val d = new DuckRunner
    try {
      d.load("a", inst("a"))
      intercept[java.sql.SQLException](d.runScript(plan))
      val (_, views) = d.fetch("SELECT view_name FROM duckdb_views() WHERE NOT internal")
      assert(views.isEmpty, views)
    } finally d.close()
  }

  test("a shared operator is inlined: one SEQ_SCAN per root-to-scan path (Classic Q4)") {
    val plan = Yannakakis.plan(q4, JoinTree.defaultTree(q4))
    val parents = plan.ops.flatMap(_.children).groupBy(identity).values.map(_.size)
    assert(parents.exists(_ > 1), s"no shared operator in\n${plan.render}")
    def paths(o: Op): Int = if (o.children.isEmpty) 1 else o.children.map(paths).sum
    // DuckDB 1.0 renders EXPLAIN at most 16 boxes wide: keep the plan narrower
    assert(paths(plan.root) < 16)
    val d = new DuckRunner
    try {
      d.loadInstances(TestData.instances(spark, q4, rows = 60, dom = 6))
      val (_, explain) = d.fetch(s"EXPLAIN ${SqlGen.script(plan).finalQuery}")
      val scans = explain.flatten.map("SEQ_SCAN".r.findAllMatchIn(_).size).sum
      assert(scans == paths(plan.root) && scans > plan.count { case s: Scan => s },
        explain.flatten.mkString("\n"))
    } finally d.close()
  }

  test("timings are reported positive") {
    val d = new DuckRunner
    try {
      val inst = TestData.instances(spark, q4, rows = 100, dom = 8)
      d.loadInstances(inst)
      val (n1, t1) = d.runNative(q4)
      val (n2, t2) = d.runScript(YannakakisPlus.plan(q4))
      assert(n1 == n2 && t1 > 0 && t2 > 0)
    } finally d.close()
  }

  test("typed loading preserves Spark schemas") {
    val d = new DuckRunner
    try {
      val df = repro.SynthData.part(spark, 0.001)
      d.load("part", df)
      val (cols, rows) = d.fetch("SELECT * FROM part LIMIT 1")
      assert(cols.map(_.toLowerCase) == df.columns.toVector.map(_.toLowerCase))
      assert(rows.nonEmpty)
      val (_, cnt) = d.fetch("SELECT COUNT(*) AS c FROM part")
      assert(cnt.head.head.toLong == df.count())
    } finally d.close()
  }
}
