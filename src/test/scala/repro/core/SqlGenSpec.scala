package repro.core

import repro.{Oracle, SparkSpec}
import Fixtures._

/** The SQL rewriter backend (paper §6 / Table 1 SQL spellings): query
  * shapes and execution equivalence through `spark.sql`.
  */
class SqlGenSpec extends SparkSpec {

  private def scriptFor(cq: CQ, tree: RootedTree = null) = {
    val t = Option(tree).getOrElse(JoinTree.defaultTree(cq))
    SqlGen.script(YannakakisPlus.plan(cq, t))
  }

  /** A script's operator definitions `<q>_op<i> AS (…)`, in order, and the
    * query after them that reads the root's.
    */
  private def split(s: SqlGen.Script): (Vector[String], String) = {
    val q = s.finalQuery
    assert(q.startsWith("WITH "), q)
    val cut = q.lastIndexOf(") SELECT ")
    (q.substring("WITH ".length, cut + 1).split(", (?=\\w+_op\\d+ AS \\()").toVector,
      q.substring(cut + 2))
  }

  test("one CTE per operator, each defined once") {
    val plan = YannakakisPlus.plan(q1, q1TreeT1)
    val s = SqlGen.script(plan)
    val (defs, _) = split(s)
    val names = defs.map(_.takeWhile(_ != ' '))
    assert(names.size == plan.ops.size && names.distinct == names, defs)
    assert(s.statements.isEmpty && s.viewNames.isEmpty)
  }

  test("semi-joins use the paper's IN (SELECT DISTINCT …) spelling") {
    val (defs, _) = split(scriptFor(q1, q1TreeT1))
    assert(defs.exists(_.contains("IN (SELECT DISTINCT")))
  }

  test("aggregating projections become GROUP BY statements") {
    val (defs, _) = split(scriptFor(q3))
    assert(defs.exists(d => d.contains("GROUP BY") && d.contains("SUM(")))
  }

  test("count annotations fold with SUM, materialize with COUNT(*)") {
    val s = scriptFor(line(3, Vector("x1"), count()))
    assert(s.finalQuery.contains("COUNT(*)"))
  }

  test("final count is COALESCE'd to 0 for SQL parity") {
    val (_, query) = split(scriptFor(line(2, Vector.empty, count())))
    assert(query.contains("COALESCE"))
  }

  test("distinct projection queries emit SELECT DISTINCT") {
    val s = scriptFor(line(3, Vector("x1", "x4")))
    assert(s.finalQuery.contains("SELECT DISTINCT"))
  }

  private def sparkScriptMatchesOracle(cq: CQ, seed: Long = 7): Unit = {
    val inst = TestData.instances(spark, cq, rows = 120, dom = 8, seed = seed)
    inst.foreach { case (id, df) => df.createOrReplaceTempView(id) }
    Oracle.assertEquivalent(spark.sql(scriptFor(cq).finalQuery), cq, inst)
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
