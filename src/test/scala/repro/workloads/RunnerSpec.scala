package repro.workloads

import repro.{Oracle, SparkSpec}
import repro.core._

/** The unified Runner: every method dispatch path, CE modes, and the
  * SQL-script (PlusSql) deployment of §6.
  */
class RunnerSpec extends SparkSpec {

  private lazy val t = TpchLite.tables(spark, sf = 0.002)

  private def check(w: Workload, m: Runner.Method,
                    ce: Runner.CeMode = Runner.CeEstimated): Unit = {
    val r = Runner.run(w, m, ce)
    Oracle.assertEquivalent(r.df, w.cq.oracleSql, w.instances.toSeq: _*)
    r.cleanup()
  }

  test("PlusSql (rewritten SQL statements through spark.sql) on TPCH Q3") {
    check(TpchLite.q3(t), Runner.PlusSql)
  }

  test("PlusSql on TPCH Q9") {
    check(TpchLite.q9(t), Runner.PlusSql)
  }

  test("PlusSql on an SGPB count query") {
    val w = Sgpb.workload(spark, "q1b", nEdges = 1000, nVertices = 200)
    check(w, Runner.PlusSql)
  }

  test("accurate CE mode produces correct results") {
    check(TpchLite.q10(t), Runner.Plus, Runner.CeAccurate)
  }

  test("worst-case CE mode produces correct results") {
    check(TpchLite.q10(t), Runner.Plus, Runner.CeWorstCase)
  }

  test("unoptimized (default-tree) planning produces correct results") {
    val w = TpchLite.q9(t)
    val r = Runner.run(w, Runner.Plus, optimize = false)
    Oracle.assertEquivalent(r.df, w.cq.oracleSql, w.instances.toSeq: _*)
    r.cleanup()
  }

  test("acyclify is the identity for acyclic queries") {
    val w = TpchLite.q3(t)
    val (cq, inst, cfg, _) = Runner.acyclify(w)
    assert(cq eq w.cq)
    assert(inst eq w.instances)
    assert(cfg eq w.cfg)
  }

  test("cyclic query without key facts takes the GHD path") {
    val w0 = Sgpb.workload(spark, "q2b", nEdges = 400, nVertices = 80)
    assert(w0.cfg.uniqueKeys.isEmpty)
    val (cq, _, _, _) = Runner.acyclify(w0)
    assert(cq.name.endsWith("_ghd"))
  }

  test("cyclic query with key facts takes the cycle-elimination path") {
    val w = TpchLite.q5(t)
    val (cq, _, _, _) = Runner.acyclify(w)
    assert(cq.name.endsWith("_acyc"))
  }

  test("stats are cached per bound instance map") {
    val w = TpchLite.q3(t)
    val s1 = Runner.cachedStats(w.cq, w.instances)
    val s2 = Runner.cachedStats(w.cq, w.instances)
    assert(s1 eq s2)
  }

  test("distinct instance maps over different atoms get their own stats") {
    import spark.implicits._
    val cqA = CQ("ra", Vector(Atom("a", Vector("x"))), Vector("x"))
    val cqB = CQ("rb", Vector(Atom("b", Vector("y"))), Vector("y"))
    val instA: CQ.Instances = Map("a" -> Seq(1L, 2L, 3L).toDF("x"))
    val instB: CQ.Instances = Map("b" -> Seq(1L, 2L, 3L, 4L, 5L).toDF("y"))
    val sA = Runner.cachedStats(cqA, instA)
    val sB = Runner.cachedStats(cqB, instB)
    assert(sA.keySet == Set("a") && sA("a").rows == 3.0)
    assert(sB.keySet == Set("b") && sB("b").rows == 5.0)
    assert(Runner.cachedStats(cqA, instA) eq sA)
  }

  test("PlusSql and Plus agree with each other on Q10") {
    val w = TpchLite.q10(t)
    val a = Runner.run(w, Runner.Plus)
    val b = Runner.run(w, Runner.PlusSql)
    val ca = a.df.collect().map(_.toString).sorted.toSeq
    val cb = b.df.collect().map(_.toString).sorted.toSeq
    assert(ca == cb)
    a.cleanup(); b.cleanup()
  }
}
