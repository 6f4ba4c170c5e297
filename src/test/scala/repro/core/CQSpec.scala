package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Fixtures._

/** CQ structure and flat-SQL generation (native plans + oracle). */
class CQSpec extends AnyFunSuite {

  test("join attributes are the shared ones") {
    assert(q4.joinAttrs == Set("x2"))
    assert(q1.joinAttrs == Set("x2", "x3", "x4", "x7"))
  }

  test("attrsElsewhere excludes only attrs unique to the atom") {
    assert(!q1.attrsElsewhere("R1").contains("x1")) // x1 only in R1
    assert(q1.attrsElsewhere("R1").contains("x2"))  // shared with R2
  }

  test("output must be a subset of the attributes") {
    intercept[IllegalArgumentException] {
      CQ("bad", Vector(Atom("a", Vector("x"))), Vector("y"))
    }
  }

  test("full-enumeration queries must output all attributes") {
    intercept[IllegalArgumentException] {
      CQ("bad", Vector(Atom("a", Vector("x", "y"))), Vector("x"),
        Vector.empty, distinctOutput = false)
    }
  }

  test("duplicate atom ids are rejected") {
    intercept[IllegalArgumentException] {
      CQ("bad", Vector(Atom("a", Vector("x")), Atom("a", Vector("x"))), Vector("x"))
    }
  }

  test("CountProduct AggSpec must be COUNT(*)") {
    intercept[IllegalArgumentException] {
      AggSpec("c", Semiring.CountProduct, Map("a" -> "x"))
    }
  }

  test("count-star SQL") {
    val sql = q4.sparkSql
    assert(sql.contains("COUNT(*) AS cnt"))
    assert(sql.contains("GROUP BY R1.x1"))
    assert(sql.contains("R1.x2 = R2.x2"))
  }

  test("sum-product SQL multiplies per-atom expressions with casts") {
    val cq = CQ("s", Vector(Atom("a", Vector("x", "v")), Atom("b", Vector("x", "w"))),
      Vector("x"),
      Vector(AggSpec("s", Semiring.SumProduct, Map("a" -> "v", "b" -> "w"))))
    val sql = cq.sparkSql
    assert(sql.contains("SUM((CAST(a.v AS DOUBLE)) * (CAST(b.w AS DOUBLE))) AS s"))
  }

  test("string MIN is not cast") {
    val cq = CQ("m", Vector(Atom("a", Vector("x", "s"))), Vector.empty,
      Vector(AggSpec("m", Semiring.MinString, Map("a" -> "s"))))
    assert(cq.sparkSql.contains("MIN((a.s)) AS m"))
  }

  test("distinct projection SQL") {
    val cq = line(3, Vector("x1", "x4"))
    assert(cq.sparkSql.startsWith("SELECT DISTINCT"))
  }

  test("full enumeration SQL has no DISTINCT or GROUP BY") {
    val cq = line(2, Vector("x1", "x2", "x3"), Vector.empty, distinct = false)
    val sql = cq.sparkSql
    assert(!sql.contains("DISTINCT") && !sql.contains("GROUP BY"))
  }

  test("no-output aggregate has no GROUP BY (single global row)") {
    val cq = line(3, Vector.empty, count())
    assert(!cq.sparkSql.contains("GROUP BY"))
  }

  test("self-join atoms generate distinct table references") {
    val sql = line(2, Vector("x1"), count()).sparkSql
    assert(sql.contains("FROM e1, e2"))
  }

  test("expression annotations qualify attr tokens but not literals") {
    val cq = CQ("e", Vector(Atom("a", Vector("x", "v"))), Vector("x"),
      Vector(AggSpec("s", Semiring.SumProduct, Map("a" -> "v * 2 + 1"))))
    val sql = cq.sparkSql
    assert(sql.contains("CAST(a.v AS DOUBLE) * 2 + 1"))
  }

  test("oracle SQL equals spark SQL modulo casts") {
    // the oracle runs the DuckDB text; count-star: no casts either way
    assert(q4.flatSql(duck = true) == q4.sparkSql)
  }
}
