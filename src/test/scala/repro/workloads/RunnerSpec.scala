package repro.workloads

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.opt.{AtomStats, CycleElimination, EstimatedCE, PlanEnumerator, Stats}

/** The unified Runner: every method dispatch path, CE modes, and the
  * SQL-script (PlusSql) deployment of §6.
  */
class RunnerSpec extends SparkSpec {

  private lazy val t = TpchLite.tables(spark, sf = 0.002)

  /** TPC-H-lite q5 through cycle elimination and, on the 5-copy tables
    * without key facts, through GHD. Each call binds fresh instance
    * DataFrames, whose statistics nothing has collected yet.
    */
  private def q5Paths(): Seq[Workload] = Seq(TpchLite.q5(t),
    TpchLite.q5(TpchLite.withCopies(t, 5)).copy(cfg = RuleConfig.default))

  private val SentinelKey = "repro.test.sentinel"

  /** The number of Spark jobs started while `body` runs. The listener bus
    * is flushed before and after with a sentinel job: its start event is
    * delivered after every event posted before it.
    */
  private def jobsDuring(body: => Any): Int = {
    val sc = spark.sparkContext
    val started = new AtomicInteger
    val sentinels = new LinkedBlockingQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(SentinelKey))) match {
          case Some(token) => sentinels.put(token)
          case None        => started.incrementAndGet()
        }
    }
    def flush(): Unit = {
      val token = java.util.UUID.randomUUID.toString
      sc.setLocalProperty(SentinelKey, token)
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(SentinelKey, null)
      while (Option(sentinels.poll(30, TimeUnit.SECONDS))
          .getOrElse(fail("the sentinel job's start event did not arrive in 30 s")) != token) ()
    }
    sc.addSparkListener(listener)
    try { flush(); started.set(0); body; flush(); started.get }
    finally sc.removeSparkListener(listener)
  }

  private def check(w: Workload, m: Runner.Method,
                    ce: Runner.CeMode = Runner.CeEstimated): Unit = {
    val r = Runner.run(w, m, ce)
    Oracle.assertEquivalent(r.df, w.cq, w.instances)
    r.cleanup()
  }

  test("PlusSql (rewritten SQL statements through spark.sql) on TPCH Q3") {
    check(TpchLite.q3(t), Runner.PlusSql)
  }

  test("PlusSql leaves no operator view in the session") {
    val w = TpchLite.q3(t)
    val r = Runner.run(w, Runner.PlusSql)
    try r.df.collect() finally r.cleanup()
    val views = spark.catalog.listTables().collect().map(_.name).filter(_.contains("_op"))
    assert(views.isEmpty, views.mkString(", "))
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
    Oracle.assertEquivalent(r.df, w.cq, w.instances)
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
    var s2 = Map.empty[String, AtomStats]
    assert(jobsDuring { s2 = Runner.cachedStats(w.cq, w.instances) } == 0)
    assert(s1 == s2)
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
    var again = Map.empty[String, AtomStats]
    assert(jobsDuring { again = Runner.cachedStats(cqA, instA) } == 0)
    assert(again == sA)
  }

  test("with base statistics known, planning q5 starts no Spark job (cycle elimination and GHD)") {
    for (w <- q5Paths()) {
      Runner.cachedStats(w.cq, w.instances)
      assert(jobsDuring(Runner.plan(w, Runner.Plus)) == 0, w.cq.name)
    }
  }

  test("control: with base statistics unknown, planning q5 starts Spark jobs") {
    for (w <- q5Paths())
      assert(jobsDuring(Runner.plan(w, Runner.Plus)) > 0, w.cq.name)
  }

  test("the renamed atom's derived statistics equal those collected on it") {
    val w = TpchLite.q5(t)
    val r = CycleElimination(w.cq).get
    val inst = r.rebind(w.instances)
    val (id, _, _) = r.renamed
    val derived = Stats.of(inst(id), r.cq.atom(id).attrs)
    assert(derived == Stats.collect(r.cq, inst)(id))
  }

  test("the enumerator picks the same q5 plan with derived as with collected statistics") {
    for (w <- q5Paths()) {
      val (cq, inst, cfg, _) = Runner.acyclify(w)
      def best(s: Map[String, AtomStats]): String =
        PlanEnumerator.best(cq, cfg, new EstimatedCE(cq, s), s).plan.render
      assert(best(Runner.cachedStats(cq, inst)) == best(Stats.collect(cq, inst)), cq.name)
    }
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
