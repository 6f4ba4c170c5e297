package repro.opt

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.core.Fixtures._

/** Cycle elimination (paper §5.1, Example 5.2). */
class RulesSpec extends SparkSpec {

  import spark.implicits._

  test("cycle elimination: triangle becomes acyclic with one rename") {
    val r = CycleElimination(triangle)
    assert(r.isDefined)
    assert(Hypergraph.isAcyclic(r.get.cq))
  }

  test("cycle elimination: acyclic queries are left alone") {
    assert(CycleElimination(q1).isEmpty)
  }

  test("cycle elimination preserves triangle counts end-to-end") {
    val e = repro.SynthData.edges(spark, 1500, 60, seed = 19)
    val inst: CQ.Instances = Map(
      "e1" -> e.select($"src".as("a"), $"dst".as("b")),
      "e2" -> e.select($"src".as("b"), $"dst".as("c")),
      "e3" -> e.select($"src".as("c"), $"dst".as("a")))
    // paths a→b→c but no closing edge: COUNT(*) is 0, not NULL
    val noTriangle: CQ.Instances = Map(
      "e1" -> Seq((1L, 2L), (2L, 3L)).toDF("a", "b"),
      "e2" -> Seq((2L, 3L), (3L, 4L)).toDF("b", "c"),
      "e3" -> Seq((3L, 9L), (4L, 8L)).toDF("c", "a"))
    val r = CycleElimination(triangle).get
    val plan = YannakakisPlus.plan(r.cq)
    for (i <- Seq(inst, noTriangle)) {
      val res = Executor.run(plan, r.rebind(i))
      val got = r.finish(res.df)
      Oracle.assertEquivalent(got, triangle, i)
      res.cleanup()
    }
  }

  test("cycle elimination on the TPC-H Q5 shape preserves grouped sums") {
    val cq = CQ("q5ish", Vector(
      Atom("c", Vector("ck", "nk")), Atom("o", Vector("ok", "ck")),
      Atom("l", Vector("ok", "sk", "price")), Atom("s", Vector("sk", "nk"))),
      Vector("nk"),
      Vector(AggSpec("rev", Semiring.SumProduct, Map("l" -> "price"))))
    assert(!Hypergraph.isAcyclic(cq))
    val inst: CQ.Instances = Map(
      "c" -> spark.range(50).select(($"id" % 50 + 1).as("ck"), ($"id" % 5).as("nk")),
      "o" -> spark.range(200).select(($"id" + 1).as("ok"), ($"id" % 50 + 1).as("ck")),
      "l" -> spark.range(600).select(($"id" % 200 + 1).as("ok"), ($"id" % 20 + 1).as("sk"),
        floor(rand(3) * 100).cast("double").as("price")),
      "s" -> spark.range(20).select(($"id" + 1).as("sk"), ($"id" % 5).as("nk")))
    val r = CycleElimination(cq).get
    val res = Executor.run(YannakakisPlus.plan(r.cq), r.rebind(inst))
    Oracle.assertEquivalent(r.finish(res.df), cq, inst)
    res.cleanup()
  }

  test("cycle elimination keeps distinct-projection semantics") {
    val cq = triangle.copy(output = Vector("a"), aggs = Vector.empty)
    val e = repro.SynthData.edges(spark, 800, 40, seed = 21)
    val inst: CQ.Instances = Map(
      "e1" -> e.select($"src".as("a"), $"dst".as("b")),
      "e2" -> e.select($"src".as("b"), $"dst".as("c")),
      "e3" -> e.select($"src".as("c"), $"dst".as("a")))
    val r = CycleElimination(cq).get
    val res = Executor.run(YannakakisPlus.plan(r.cq), r.rebind(inst))
    Oracle.assertEquivalent(r.finish(res.df), cq, inst)
    res.cleanup()
  }
}
