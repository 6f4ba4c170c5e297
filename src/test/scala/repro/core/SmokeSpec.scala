package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** End-to-end smoke: the paper's Q4 (Example 3.1) — a 2-relation
  * aggregation — through native / Yannakakis / Yannakakis+ paths, all
  * checked against DuckDB.
  */
class SmokeSpec extends SparkSpec {

  private lazy val edges = {
    val df = repro.SynthData.edges(spark, 2000, 150, seed = 5)
    df.persist(); df.count(); df
  }

  private def q4 = {
    // π_{x1} (R1(x1,x2) ⋈ R2(x2,x3)) with count annotations:
    // length-2 paths per source vertex (paper Example 3.1).
    val cq = CQ("q4", Vector(
      Atom("r1", Vector("x1", "x2")), Atom("r2", Vector("x2", "x3"))),
      Vector("x1"),
      Vector(AggSpec("cnt", Semiring.CountProduct)))
    val inst: CQ.Instances = Map(
      "r1" -> edges.select(col("src").as("x1"), col("dst").as("x2")),
      "r2" -> edges.select(col("src").as("x2"), col("dst").as("x3")))
    (cq, inst)
  }

  test("Q4 native Spark SQL matches oracle") {
    val (cq, inst) = q4
    val df = Executor.runNative(cq, inst)
    Oracle.assertEquivalent(df, cq, inst)
  }

  test("Q4 Yannakakis plan matches oracle") {
    val (cq, inst) = q4
    val plan = Yannakakis.plan(cq)
    val res = Executor.run(plan, inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("Q4 Yannakakis+ plan matches oracle and uses no semi-join") {
    val (cq, inst) = q4
    val plan = YannakakisPlus.plan(cq)
    assert(plan.nSemiJoins == 0, plan.render) // Example 3.1's observation
    val res = Executor.run(plan, inst)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("Q4 Yannakakis+ SQL script on Spark matches oracle") {
    val (cq, inst) = q4
    inst.foreach { case (id, df) => df.createOrReplaceTempView(id) }
    val df = spark.sql(SqlGen.script(YannakakisPlus.plan(cq)).finalQuery)
    Oracle.assertEquivalent(df, cq, inst)
  }
}
