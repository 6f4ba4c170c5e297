package repro

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.duck.DuckRunner

/** The DuckDB oracle every correctness spec trusts: it compares results as
  * multisets of canonical rows, checks column names, rounds doubles to six
  * decimals and loads instances with their Spark types.
  */
class OracleSpec extends SparkSpec {

  import spark.implicits._

  /** `SELECT t.a AS a, t.b AS b FROM t`: DuckDB returns `t`'s rows as loaded. */
  private val scanAB = CQ("scan", Vector(Atom("t", Vector("a", "b"))),
    Vector("a", "b"), distinctOutput = false)

  private def rowsAB(rows: (String, String)*): DataFrame = rows.toDF("a", "b")

  private def mismatch(df: DataFrame, cq: CQ, inst: CQ.Instances): String =
    intercept[IllegalArgumentException](Oracle.assertEquivalent(df, cq, inst)).getMessage

  test("row order does not matter, also for rows whose cells concatenate alike") {
    // with U+0001 between cells both rows read "x\u0001\u0001y": a sort key
    // that joins the cells cannot tell them apart
    val inst = Map("t" -> rowsAB(("x\u0001", "y"), ("x", "\u0001y")))
    Oracle.assertEquivalent(rowsAB(("x", "\u0001y"), ("x\u0001", "y")), scanAB, inst)
    Oracle.assertEquivalent(rowsAB(("12", "3"), ("1", "23")), scanAB,
      Map("t" -> rowsAB(("1", "23"), ("12", "3"))))
  }

  test("a row duplicated on one side only fails") {
    val once = rowsAB(("1", "2"), ("3", "4"))
    val twice = rowsAB(("1", "2"), ("3", "4"), ("1", "2"))
    assert(mismatch(twice, scanAB, Map("t" -> once)).contains("result mismatch"))
    assert(mismatch(once, scanAB, Map("t" -> twice)).contains("result mismatch"))
  }

  test("doubles agree to six decimals: 1e-7 apart passes, 1e-3 apart fails") {
    val cq = CQ("scanX", Vector(Atom("t", Vector("x"))), Vector("x"), distinctOutput = false)
    val inst = Map("t" -> Seq(1.25, -3.5).toDF("x"))
    Oracle.assertEquivalent(Seq(1.2500001, -3.4999999).toDF("x"), cq, inst)
    assert(mismatch(Seq(1.251, -3.5).toDF("x"), cq, inst).contains("result mismatch"))
  }

  test("a value that rounds to zero compares unsigned: -1e-9 equals 1e-9") {
    val cq = CQ("scanX", Vector(Atom("t", Vector("x"))), Vector("x"), distinctOutput = false)
    Oracle.assertEquivalent(Seq(-1e-9).toDF("x"), cq, Map("t" -> Seq(1e-9).toDF("x")))
  }

  test("a column-name mismatch fails") {
    val inst = Map("t" -> rowsAB(("1", "2")))
    val msg = mismatch(Seq(("1", "2")).toDF("a", "c"), scanAB, inst)
    assert(msg.contains("column mismatch"), msg)
  }

  test("Long, Int, Double and String columns load typed and match a Spark run") {
    val inst: CQ.Instances = Map(
      "f" -> Seq((1L, 7, 0.5), (1L, 7, 1.25), (2L, 8, 2.0), (3L, 7, 4.0)).toDF("k", "n", "v"),
      "d" -> Seq((1L, "x"), (2L, "y"), (2L, "z"), (9L, "w")).toDF("k", "s"))
    val d = new DuckRunner
    try {
      d.loadInstances(inst)
      val (_, types) = d.fetch("SELECT table_name, column_name, data_type " +
        "FROM information_schema.columns ORDER BY table_name, ordinal_position")
      assert(types == Vector(
        Vector("d", "k", "BIGINT"), Vector("d", "s", "VARCHAR"),
        Vector("f", "k", "BIGINT"), Vector("f", "n", "INTEGER"), Vector("f", "v", "DOUBLE")))
    } finally d.close()
    val cq = CQ("typed", Vector(Atom("f", Vector("k", "n", "v")), Atom("d", Vector("k", "s"))),
      Vector("n", "s"), Vector(AggSpec("total", Semiring.SumProduct, Map("f" -> "v"))))
    val res = Executor.run(YannakakisPlus.plan(cq), inst)
    try {
      assert(Oracle.canon(res.df) == Map(
        Seq("7", "x", "1.750000") -> 1, Seq("8", "y", "2.000000") -> 1,
        Seq("8", "z", "2.000000") -> 1))
      Oracle.assertEquivalent(res.df, cq, inst)
    } finally res.cleanup()
  }
}
