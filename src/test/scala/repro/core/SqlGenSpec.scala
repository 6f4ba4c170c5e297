package repro.core

import repro.{Oracle, SparkSpec}
import Fixtures._

/** The SQL rewriter backend (paper §6 / Table 1 SQL spellings): statement
  * shapes and execution equivalence through `spark.sql`.
  */
class SqlGenSpec extends SparkSpec {

  private def scriptFor(cq: CQ, tree: RootedTree = null) = {
    val t = Option(tree).getOrElse(JoinTree.defaultTree(cq))
    SqlGen.script(YannakakisPlus.plan(cq, t), SqlGen.SparkDialect)
  }

  test("one statement per operator plus one final query") {
    val plan = YannakakisPlus.plan(q1, q1TreeT1)
    val s = SqlGen.script(plan, SqlGen.SparkDialect)
    assert(s.statements.size == plan.ops.size)
    assert(s.viewNames.distinct.size == plan.ops.size)
  }

  test("semi-joins use the paper's IN (SELECT DISTINCT …) spelling") {
    val s = scriptFor(q1, q1TreeT1)
    assert(s.statements.exists(_.contains("IN (SELECT DISTINCT")))
  }

  test("aggregating projections become GROUP BY statements") {
    val s = scriptFor(q3)
    assert(s.statements.exists(st => st.contains("GROUP BY") && st.contains("SUM(")))
  }

  test("count annotations fold with SUM, materialize with COUNT(*)") {
    val s = scriptFor(line(3, Vector("x1"), count()))
    val all = (s.statements :+ s.finalQuery).mkString("\n")
    assert(all.contains("COUNT(*)"))
  }

  test("final count is COALESCE'd to 0 for SQL parity") {
    val s = scriptFor(line(2, Vector.empty, count()))
    assert(s.finalQuery.contains("COALESCE"))
  }

  test("distinct projection queries emit SELECT DISTINCT") {
    val s = scriptFor(line(3, Vector("x1", "x4")))
    assert((s.statements :+ s.finalQuery).exists(_.contains("SELECT DISTINCT")))
  }

  test("duck dialect uses TEMP VIEW DDL") {
    val plan = YannakakisPlus.plan(q4)
    val s = SqlGen.script(plan, SqlGen.DuckDialect)
    assert(s.statements.forall(_.startsWith("CREATE OR REPLACE TEMP VIEW")))
  }

  private def sparkScriptMatchesOracle(cq: CQ, seed: Long = 7): Unit = {
    val inst = TestData.instances(spark, cq, rows = 120, dom = 8, seed = seed)
    inst.foreach { case (id, df) => df.createOrReplaceTempView(id) }
    val s = scriptFor(cq)
    s.statements.foreach(spark.sql)
    Oracle.assertEquivalent(spark.sql(s.finalQuery), cq, inst)
  }

  test("script execution matches oracle: Q1") { sparkScriptMatchesOracle(q1) }
  test("script execution matches oracle: Q2") { sparkScriptMatchesOracle(q2) }
  test("script execution matches oracle: Q3") { sparkScriptMatchesOracle(q3) }
  test("script execution matches oracle: non-free-connex projection") {
    sparkScriptMatchesOracle(line(3, Vector("x1", "x4")))
  }
  test("script execution matches oracle: multi-aggregate query") {
    sparkScriptMatchesOracle(CQ("multi", Vector(
      Atom("a", Vector("x", "v")), Atom("b", Vector("x", "y", "w"))),
      Vector("y"),
      Vector(
        AggSpec("cnt", Semiring.CountProduct),
        AggSpec("s", Semiring.SumProduct, Map("a" -> "v")),
        AggSpec("m", Semiring.MinSum, Map("b" -> "w")))))
  }
  test("script execution matches oracle: full enumeration") {
    sparkScriptMatchesOracle(line(2, Vector("x1", "x2", "x3"), Vector.empty,
      distinct = false))
  }
}
