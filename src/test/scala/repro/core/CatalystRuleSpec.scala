package repro.core

import org.apache.spark.sql.catalyst.plans.logical.{Join => LJoin, LogicalPlan}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.catalyst.{YannakakisPlusExtension, YannakakisPlusRule}
import repro.workloads.{TpchLite, Workload}

/** The Catalyst `Rule[LogicalPlan]` integration: an Aggregate over an
  * acyclic inner-equi-join tree is rewritten into the Yannakakis+ DAG
  * (LeftSemi joins + partial Aggregates), producing identical results to
  * the un-rewritten plan.
  */
class CatalystRuleSpec extends SparkSpec {

  import spark.implicits._

  private lazy val views: Unit = {
    val e = repro.SynthData.edges(spark, 3000, 120, seed = 41)
    e.select($"src".as("a"), $"dst".as("b")).createOrReplaceTempView("ab")
    e.select($"src".as("b"), $"dst".as("c")).createOrReplaceTempView("bc")
    e.select($"src".as("c"), $"dst".as("d")).createOrReplaceTempView("cd")
    repro.SynthData.edges(spark, 500, 120, seed = 43)
      .select($"src".as("d"), $"dst".as("e"),
        (rand(7) * 10).cast("long").as("w"),
        concat(lit("s"), (rand(9) * 5).cast("int").cast("string")).as("s"))
      .createOrReplaceTempView("de")
  }

  /** Run `sql` with and without the rule; require identical results, and
    * (when `expectRewrite`) require the optimized plan to contain the
    * rewrite's LeftSemi joins or partial aggregates.
    */
  private def compare(sql: String, expectRewrite: Boolean = true): Unit = {
    views
    YannakakisPlusExtension.uninstall(spark)
    val expected = Oracle.canon(spark.sql(sql))
    YannakakisPlusExtension.install(spark)
    try {
      val df = spark.sql(sql)
      val optimized = df.queryExecution.optimizedPlan
      val rewritten = optimized.collectFirst {
        case a: org.apache.spark.sql.catalyst.plans.logical.Aggregate
          if a.getTagValue(YannakakisPlusRule.Tag).contains(true) => a
      }.isDefined
      if (expectRewrite) assert(rewritten, s"not rewritten:\n$optimized")
      assert(Oracle.canon(df) == expected)
    } finally YannakakisPlusExtension.uninstall(spark)
  }

  test("COUNT(*) over a 3-hop path is rewritten and matches") {
    compare("SELECT ab.a, COUNT(*) AS cnt FROM ab, bc, cd " +
      "WHERE ab.b = bc.b AND bc.c = cd.c GROUP BY ab.a")
  }

  test("global COUNT(*) (no GROUP BY) is rewritten and matches") {
    compare("SELECT COUNT(*) AS cnt FROM ab, bc, cd " +
      "WHERE ab.b = bc.b AND bc.c = cd.c")
  }

  test("SUM of a single column is rewritten and matches") {
    compare("SELECT bc.c, SUM(de.w) AS s FROM bc, cd, de " +
      "WHERE bc.c = cd.c AND cd.d = de.d GROUP BY bc.c")
  }

  test("SUM of a cross-relation product is rewritten and matches") {
    compare("SELECT SUM(ab.a * de.w) AS s FROM ab, bc, cd, de " +
      "WHERE ab.b = bc.b AND bc.c = cd.c AND cd.d = de.d")
  }

  test("MIN/MAX aggregates are rewritten and match") {
    compare("SELECT cd.c, MIN(de.s) AS mn, MAX(de.w) AS mx FROM bc, cd, de " +
      "WHERE bc.c = cd.c AND cd.d = de.d GROUP BY cd.c")
  }

  test("mixed COUNT + MIN is rewritten and matches") {
    compare("SELECT COUNT(*) AS cnt, MIN(de.s) AS mn FROM bc, cd, de " +
      "WHERE bc.c = cd.c AND cd.d = de.d")
  }

  test("filters under the joins are kept as leaf plans") {
    compare("SELECT ab.a, COUNT(*) AS cnt FROM ab, bc, cd " +
      "WHERE ab.b = bc.b AND bc.c = cd.c AND cd.d < 50 GROUP BY ab.a")
  }

  test("cyclic queries are left untouched") {
    compare("SELECT COUNT(*) AS cnt FROM ab x, ab y, ab z " +
      "WHERE x.b = y.a AND y.b = z.a AND z.b = x.a", expectRewrite = false)
  }

  test("two-relation queries are left untouched (below the threshold)") {
    compare("SELECT ab.a, COUNT(*) AS cnt FROM ab, bc WHERE ab.b = bc.b GROUP BY ab.a",
      expectRewrite = false)
  }

  test("AVG (unsupported aggregate) is left untouched but still correct") {
    compare("SELECT AVG(de.w) AS av FROM bc, cd, de " +
      "WHERE bc.c = cd.c AND cd.d = de.d", expectRewrite = false)
  }

  test("rule is idempotent under the fixed-point batch (second run is a no-op)") {
    views
    YannakakisPlusExtension.install(spark)
    try {
      val sql = "SELECT COUNT(*) AS cnt FROM ab, bc, cd WHERE ab.b = bc.b AND bc.c = cd.c"
      val once = spark.sql(sql).queryExecution.optimizedPlan
      val again = YannakakisPlusRule(once)
      assert(again.fastEquals(once) || canonPlan(again) == canonPlan(once))
    } finally YannakakisPlusExtension.uninstall(spark)
  }

  private def canonPlan(p: org.apache.spark.sql.catalyst.plans.logical.LogicalPlan): String =
    p.treeString

  /** The optimized plan of `sql` with the rule installed. */
  private def optimizedWithRule(sql: String): LogicalPlan = {
    views
    YannakakisPlusExtension.install(spark)
    try spark.sql(sql).queryExecution.optimizedPlan
    finally YannakakisPlusExtension.uninstall(spark)
  }

  private def rewritten(plan: LogicalPlan): Boolean =
    plan.find(_.getTagValue(YannakakisPlusRule.Tag).contains(true)).isDefined

  /** The rule's output is never re-analyzed, so no join may see one
    * attribute id on both of its sides.
    */
  private def assertDistinctJoinSides(plan: LogicalPlan): Unit = plan.foreach {
    case j: LJoin =>
      val shared = j.left.outputSet.intersect(j.right.outputSet)
      assert(shared.isEmpty, s"join sides share $shared in\n$j")
    case _ =>
  }

  private lazy val tpchTables = TpchLite.tables(spark, sf = 0.002)

  /** Registers the query's instances as views (atom ids repeat across
    * queries with different columns) and returns its native SQL.
    */
  private def tpch(q: TpchLite.Tables => Workload): String = {
    val w = q(tpchTables)
    w.instances.foreach { case (id, df) => df.createOrReplaceTempView(id) }
    w.cq.sparkSql
  }

  test("TPC-H-lite q3 is rewritten and matches") {
    val sql = tpch(TpchLite.q3(_))
    compare(sql)
    assertDistinctJoinSides(optimizedWithRule(sql))
  }

  test("TPC-H-lite q9 is rewritten and matches") {
    val sql = tpch(TpchLite.q9(_))
    compare(sql)
    assertDistinctJoinSides(optimizedWithRule(sql))
  }

  test("TPC-H-lite q5 (cyclic) is left untouched") {
    val sql = tpch(TpchLite.q5(_))
    compare(sql, expectRewrite = false)
    assert(!rewritten(optimizedWithRule(sql)))
  }

  test("acyclic self-join (one view three times) is rewritten and matches") {
    val sql = "SELECT x.a, COUNT(*) AS cnt FROM ab x, ab y, ab z " +
      "WHERE x.b = y.a AND y.b = z.a GROUP BY x.a"
    compare(sql)
    assertDistinctJoinSides(optimizedWithRule(sql))
  }
}
