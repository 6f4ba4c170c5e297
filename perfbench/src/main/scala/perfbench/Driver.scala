package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.core.catalyst.{YannakakisPlusExtension, YannakakisPlusRule}
import repro.duck.DuckRunner
import repro.ghd.GHD
import repro.opt._
import repro.workloads.{Runner, Workload}

/** One timed operation: query `query` run by `op`. */
final case class Sample(query: String, op: String, ms: Double)

/** A metric as printed: value, unit and a note (sample count, percentile). */
final case class Metric(name: String, value: Double, unit: String, note: String = "")

/** Runs one workload: set-up, an untimed verification pass against the
  * DuckDB native oracle, then closed-loop timed passes (one query at a
  * time, every method in turn) for the requested number of seconds.
  * Untraced runs call `Runner.run`; traced runs call the layers one at a
  * time, in the order `Runner.run` calls them, with a span around each.
  */
final class Driver(engine: Engine, workload: String, seed: Long, seconds: Double,
                   val tracer: Tracer) {

  import Driver._

  private val spark = engine.spark

  // ------------------------------------------------------------ set-up --

  /** Generate data, cache the instances, collect base-table statistics
    * (a DBMS already holds them) and load every query's instances into
    * its own in-process DuckDB. Each instance is one partition: they are
    * small, and every partition costs set-up a Spark job per DuckDB load.
    */
  private def setupOnce(): Loaded = {
    val qs = Workloads.build(spark, workload, seed).map(q => q.copy(w = q.w.copy(
      instances = q.w.instances.map { case (id, df) => id -> df.coalesce(1) }).cached))
    qs.foreach(q => Runner.cachedStats(q.w.cq, q.w.instances))
    val ducks = qs.map { q =>
      val d = new DuckRunner
      val st = d.conn.createStatement()
      try st.execute(s"SET threads TO $DuckThreads") finally st.close()
      d.loadInstances(q.w.instances)
      d
    }
    Loaded(qs, ducks)
  }

  val setupSeconds = ArrayBuffer.empty[Double]

  private lazy val loaded: Loaded = {
    var last: Option[Loaded] = None
    (1 to SetupReps).foreach { _ =>
      last.foreach(_.close())
      val t0 = System.nanoTime()
      last = Some(setupOnce())
      setupSeconds += (System.nanoTime() - t0) / 1e9
    }
    last.get
  }

  // ------------------------------------------------------ bookkeeping --

  var attempted = 0L
  val failures = ArrayBuffer.empty[String]
  /** Outputs that differ from the oracle; each is also in `failures`. */
  var wrongResults = 0
  val samples = ArrayBuffer.empty[Sample]
  private val opOfQuery = collection.mutable.Map.empty[Int, (String, String)]

  private def record(q: Query, op: String, o: Outcome): Unit = {
    attempted += 1
    o match {
      case Done(ms)        => samples += Sample(q.name, op, ms)
      case Failed(_, why)  => failures += s"${q.name}/$op: $why"
    }
  }

  // ----------------------------------------------------- verification --

  val outputRows = collection.mutable.Map.empty[String, Long]

  /** Every (query, method, engine) output against DuckDB native. */
  private def verify(): Unit = loaded.queries.zip(loaded.ducks).foreach { case (q, d) =>
    val oracle = {
      val st = d.conn.createStatement()
      try {
        val rs = st.executeQuery(q.w.cq.flatSql(duck = false))
        try Checksum.ofResultSet(rs) finally rs.close()
      } finally st.close()
    }
    outputRows(q.name) = oracle.rows
    def check(op: String)(result: => Checksum): Unit = {
      var got: Checksum = null
      record(q, s"verify:$op", engine.capped(s"${q.name}/$op") { got = result })
      if (got != null && got != oracle) {
        wrongResults += 1
        failures += s"${q.name}/$op: checksum ${got.render} != oracle ${oracle.render}" +
          (if (got.columns != oracle.columns) s" (columns ${got.columns} vs ${oracle.columns})" else "")
      }
    }
    check("native_spark")(Checksum.ofDataFrame(Runner.run(q.w, Runner.Native).df))
    check("plus_spark")(checksumOf(Runner.run(q.w, Runner.Plus, Runner.CeEstimated, optimize = true)))
    if (q.classic) check("classic_spark")(checksumOf(Runner.run(q.w, Runner.Classic)))
    check("catalyst_spark")(withRule(Checksum.ofDataFrame(
      Executor.runNative(q.w.cq, q.w.instances))))
    check("native_duck") {
      val (n, _) = d.runNative(q.w.cq)
      oracle.copy(rows = n) // same statement as the oracle: compare row counts
    }
    if (q.duckPlus) check("plus_duck") {
      val (cq, inst, cfg, _) = Runner.acyclify(q.w)
      duckScript(d, Runner.planPlus(cq, inst, cfg, Runner.CeEstimated, optimize = true))(
        (st, s) => { val rs = st.executeQuery(s.finalQuery); try Checksum.ofResultSet(rs) finally rs.close() })
    }
    // The traced run re-composes Runner.acyclify from its layers.
    val same = new Tracer(false)
    if (acyclifyLayered(same, q.w)._1 != Runner.acyclify(q.w)._1) {
      wrongResults += 1
      failures += s"${q.name}: layered acyclify differs from Runner.acyclify"
    }
  }

  private def checksumOf(r: Runner.RunResult): Checksum =
    try Checksum.ofDataFrame(r.df) finally r.cleanup()

  private def withRule[T](body: => T): T = {
    YannakakisPlusExtension.install(spark)
    try body finally YannakakisPlusExtension.uninstall(spark)
  }

  // ------------------------------------------------------------- ops --

  private def runSpark(w: Workload, m: Runner.Method): Unit = {
    val r = Runner.run(w, m, Runner.CeEstimated, optimize = true)
    try engine.sink(r.df) finally r.cleanup()
  }

  private val untracedOps: Vector[Op] = Vector(
    Op("native_spark", _ => true, (q, _) => runSpark(q.w, Runner.Native)),
    Op("plus_spark", _ => true, (q, _) => runSpark(q.w, Runner.Plus)),
    Op("classic_spark", _.classic, (q, _) => runSpark(q.w, Runner.Classic)),
    Op("catalyst_spark", _ => true,
      (q, _) => engine.sink(Executor.runNative(q.w.cq, q.w.instances))),
    Op("native_duck", _ => true, (q, d) => d.runNative(q.w.cq)),
    Op("plus_duck", _.duckPlus, (q, d) => {
      val (cq, inst, cfg, _) = Runner.acyclify(q.w)
      d.runScript(Runner.planPlus(cq, inst, cfg, Runner.CeEstimated, optimize = true))
    }),
    Op("plan", _ => true, (q, _) => {
      val (cq, inst, cfg, _) = Runner.acyclify(q.w)
      Runner.planPlus(cq, inst, cfg, Runner.CeEstimated, optimize = true)
    }),
  )

  private def runOp(op: Op, q: Query, d: DuckRunner, prefix: String = ""): Unit = {
    val o =
      if (op.name == "catalyst_spark") withRule(engine.capped(s"${q.name}/${op.name}")(op.run(q, d)))
      else engine.capped(s"${q.name}/${op.name}")(op.run(q, d))
    record(q, prefix + op.name, o)
  }

  // ------------------------------------------------------ traced ops --

  /** `Runner.acyclify`, one layer call at a time. */
  private def acyclifyLayered(tr: Tracer, w: Workload)
      : (CQ, CQ.Instances, RuleConfig, DataFrame => DataFrame) =
    tr.span("workloads.acyclify") {
      if (Hypergraph.isAcyclic(w.cq)) (w.cq, w.instances, w.cfg, identity[DataFrame] _)
      else {
        val eliminated =
          if (w.cfg.uniqueKeys.isEmpty) None
          else tr.span("opt.cycle_elim")(CycleElimination(w.cq))
        eliminated match {
          case Some(r) =>
            val (atomId, from, _) = r.renamed
            val cfg2 = w.cfg.copy(
              uniqueKeys = w.cfg.uniqueKeys.map { case (id, ks) =>
                id -> (if (id == atomId) ks.filterNot(_.contains(from)) else ks)
              }.filter(_._2.nonEmpty),
              refIntegrity = w.cfg.refIntegrity
                .filterNot { case (a, b) => a == atomId || b == atomId })
            (r.cq, r.rebind(w.instances), cfg2, r.finish)
          case None =>
            val stats = tr.span("opt.base_stats")(Runner.cachedStats(w.cq, w.instances))
            val dec = tr.span("ghd.decompose")(GHD.bestDecomposition(w.cq, stats)).getOrElse(
              throw new IllegalStateException(s"${w.cq.name}: no GHD found"))
            val (cq2, inst2) = tr.span("ghd.materialize")(GHD.materialize(w.cq, w.instances, dec))
            (cq2, inst2, RuleConfig.default, identity[DataFrame] _)
        }
      }
    }

  // per-query counts gathered in the traced run
  val counts = ArrayBuffer.empty[(Int, String, Double)] // (query run, name, value)
  private val perQueryOnce = collection.mutable.Map.empty[(String, String), Double]
  private var baselineRdds = Set.empty[Int]

  private def count(qid: Int, name: String, v: Double): Unit = counts += ((qid, name, v))

  private def tracedPlusSpark(q: Query): Unit = {
    val tr = tracer
    val qid = tr.newQuery()
    opOfQuery(qid) = (q.name, "plus_spark")
    var chosen: (CQ, RuleConfig, PlanEnumerator.Choice, Map[String, AtomStats]) = null
    engine.drain()
    val t0 = System.nanoTime()
    tr.span("run.plus_spark") {
      val (cq, inst, cfg, fin) = acyclifyLayered(tr, q.w)
      engine.drain()
      val jobs0 = engine.counters.snapshot.jobs
      val stats = tr.span("opt.stats")(Runner.cachedStats(cq, inst))
      engine.drain()
      count(qid, "opt.stats_miss", if (engine.counters.snapshot.jobs > jobs0) 1 else 0)
      val choice = tr.span("opt.enumerate")(
        PlanEnumerator.best(cq, cfg, new EstimatedCE(cq, stats), stats, costCap = 48))
      count(qid, "opt.plans_costed", choice.candidates)
      chosen = (cq, cfg, choice, stats)
      val res = tr.span("core.executor_build")(Executor.run(choice.plan, inst))
      try {
        engine.drain()
        val before = engine.counters.snapshot
        tr.span("spark.exec")(engine.sink(fin(res.df)))
        engine.drain()
        val d = engine.counters.snapshot - before
        count(qid, "spark.jobs", d.jobs)
        count(qid, "spark.stages", d.stages)
        count(qid, "spark.tasks", d.tasks)
        count(qid, "spark.shuffle_write_mb", d.shuffleBytes / 1e6)
        count(qid, "spark.persist_mb", engine.cachedBytesExcept(baselineRdds) / 1e6)
        engine.lastExecution.last.foreach { qe =>
          val c = PlanCounts.of(qe.executedPlan)
          count(qid, "spark.exchanges", c.exchanges)
          count(qid, "spark.reused_exchanges", c.reusedExchanges)
          count(qid, "spark.rows_per_output",
            c.joinAggRows.toDouble / math.max(1L, outputRows(q.name)))
        }
      } finally res.cleanup()
    }
    samples += Sample(q.name, "plus_spark_traced", (System.nanoTime() - t0) / 1e6)
    // One planner call on the chosen tree: the enumerator makes
    // `opt.plans_costed` such calls inside `opt.enumerate`.
    val (cq, cfg, choice, stats) = chosen
    tr.span("core.plan")(YannakakisPlus.plan(cq, choice.tree, cfg, new EstimatedCE(cq, stats)))
    irCounts(qid, "plus", choice.plan)
  }

  private def irCounts(qid: Int, method: String, p: Plan): Unit = {
    val parents = p.ops.flatMap(_.children).groupBy(identity).view.mapValues(_.size)
    count(qid, s"core.ir_semijoins.$method", p.nSemiJoins)
    count(qid, s"core.ir_joins.$method", p.nJoins)
    count(qid, s"core.ir_agg_projects.$method", p.nAggProjects)
    count(qid, s"core.ir_shared_ops.$method",
      p.ops.count(o => !o.isInstanceOf[Scan] && parents.getOrElse(o, 0) > 1))
  }

  private def tracedClassic(q: Query): Unit = {
    val tr = tracer
    val qid = tr.newQuery()
    opOfQuery(qid) = (q.name, "classic_spark")
    tr.span("run.classic_spark") {
      val (cq, inst, _, fin) = acyclifyLayered(tr, q.w)
      val plan = tr.span("core.plan")(Yannakakis.plan(cq, JoinTree.defaultTree(cq)))
      irCounts(qid, "classic", plan)
      if (q.classic) {
        val res = tr.span("core.executor_build")(Executor.run(plan, inst))
        try tr.span("spark.exec")(engine.sink(fin(res.df))) finally res.cleanup()
      }
    }
  }

  private def tracedCatalyst(q: Query): Unit = withRule {
    val tr = tracer
    val qid = tr.newQuery()
    opOfQuery(qid) = (q.name, "catalyst_spark")
    tr.span("run.catalyst_spark") {
      val df = Executor.runNative(q.w.cq, q.w.instances)
      val optimized = tr.span("catalyst.optimize")(df.queryExecution.optimizedPlan)
      count(qid, "catalyst.rewritten",
        if (optimized.find(_.getTagValue(YannakakisPlusRule.Tag).contains(true)).isDefined) 1 else 0)
      tr.span("spark.exec")(engine.sink(df))
    }
  }

  private def tracedNativeDuck(q: Query, d: DuckRunner): Unit = {
    val qid = tracer.newQuery()
    opOfQuery(qid) = (q.name, "native_duck")
    tracer.span("run.native_duck")(tracer.span("duck.native_exec")(d.runNative(q.w.cq)))
  }

  private def tracedPlusDuck(q: Query, d: DuckRunner): Unit = {
    val tr = tracer
    val qid = tr.newQuery()
    opOfQuery(qid) = (q.name, "plus_duck")
    val plan = tr.span("run.plus_duck") {
      val (cq, inst, cfg, _) = acyclifyLayered(tr, q.w)
      val stats = tr.span("opt.stats")(Runner.cachedStats(cq, inst))
      val plan = tr.span("opt.enumerate")(
        PlanEnumerator.best(cq, cfg, new EstimatedCE(cq, stats), stats, costCap = 48)).plan
      val script = tr.span("core.sqlgen")(SqlGen.script(plan, SqlGen.DuckDialect))
      count(qid, "core.sql_statements", script.statements.size + 1)
      tr.span("duck.exec")(d.runScript(plan))
      plan
    }
    val key = (q.name, "duck.scan_ratio")
    val ratio = perQueryOnce.getOrElseUpdate(key, {
      val scans = duckScript(d, plan) { (st, s) =>
        val rs = st.executeQuery(s"EXPLAIN ${s.finalQuery}")
        try {
          var n = 0
          while (rs.next()) n += "SEQ_SCAN".r.findAllMatchIn(rs.getString(2)).size
          n
        } finally rs.close()
      }
      scans.toDouble / plan.ops.count(_.isInstanceOf[Scan])
    })
    count(qid, "duck.scan_ratio", ratio)
  }

  private var plusPairs = 0

  /** The traced `plus` run and an untraced `Runner.run(Plus)`, in turns
    * first, for the tracing overhead.
    */
  private def plusPair(q: Query): Unit = {
    def untraced(): Unit = {
      val t0 = System.nanoTime()
      runSpark(q.w, Runner.Plus)
      samples += Sample(q.name, "plus_spark_untraced", (System.nanoTime() - t0) / 1e6)
    }
    plusPairs += 1
    if (plusPairs % 2 == 1) { untraced(); tracedPlusSpark(q) }
    else { tracedPlusSpark(q); untraced() }
  }

  private def tracedOps: Vector[Op] = Vector(
    Op("traced:plus_spark", _ => true, (q, _) => plusPair(q)),
    Op("traced:classic_spark", _ => true, (q, _) => tracedClassic(q)),
    Op("traced:catalyst_spark", _ => true, (q, _) => tracedCatalyst(q)),
    Op("traced:native_duck", _ => true, (q, d) => tracedNativeDuck(q, d)),
    Op("traced:plus_duck", _.duckPlus, (q, d) => tracedPlusDuck(q, d)),
  )

  // ------------------------------------------------------------- run --

  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.toVector
    .filter(_.getType == java.lang.management.MemoryType.HEAP)
  private def gcMillis: Long = gcBeans.map(_.getCollectionTime).filter(_ >= 0).sum

  /** Wall seconds of each phase of the run, in order. */
  val phases = ArrayBuffer.empty[(String, Double)]
  private def phase[T](name: String)(body: => T): T = {
    val t0 = System.nanoTime()
    try body finally phases += name -> (System.nanoTime() - t0) / 1e9
  }

  var measuredSeconds = 0.0
  /** Timed passes over the Spark slots, the last one possibly partial. */
  var passes = 0.0
  var gcMs = 0L
  var heapPeakBytes = 0L
  var tracedOpRuns = 0

  /** One operation on one query, split by engine: DuckDB slots last a
    * few milliseconds, Spark slots (and `plan`) up to seconds.
    */
  private def slotsOf(ops: Vector[Op]): (Vector[Slot], Vector[Slot]) =
    (for (op <- ops; (q, d) <- loaded.queries.zip(loaded.ducks) if op.applies(q))
      yield Slot(op, q, d)).partition(_.op.name.contains("duck"))

  /** Runs the slot's operation until `budgetMs` is spent, at least once,
    * so millisecond operations give many samples; returns the runs.
    */
  private def visit(slot: Slot, budgetMs: Double, prefix: String = ""): Int = {
    val s0 = System.nanoTime()
    var n = 0
    while ({
      runOp(slot.op, slot.q, slot.d, prefix)
      n += 1
      System.nanoTime() - s0 < budgetMs * 1e6
    }) ()
    n
  }

  def run(): Unit = {
    phase("setup")(loaded)
    phase("verify")(verify())
    baselineRdds = engine.cachedRddIds
    // Untimed and untraced visits first. Verification collects each
    // result once, but the first `noop` writes of a run and the planner's
    // first few hundred calls are still cold: the first timed `native`
    // query took twice as long as the next, and `plan` on an acyclic
    // query 5 ms at the start of a run against 1.5 ms a minute in. A
    // warm-up visit of every Spark slot would cost a whole pass.
    phase("warmup") {
      val (duck, spark) =
        slotsOf(untracedOps.filter(o => !o.name.endsWith("_spark") || o.name == "native_spark"))
      spark.foreach(visit(_, WarmupSlotMs, "warmup:"))
      duck.foreach(visit(_, WarmupSlotMs, "warmup:"))
    }

    val (duckSlots, sparkSlots) = slotsOf(if (tracer.enabled) tracedOps else untracedOps)
    heapPools.foreach(_.resetPeakUsage())
    val gc0 = gcMillis
    val t0 = System.nanoTime()
    def elapsed = System.nanoTime() - t0
    // The Spark slots are visited in turn, and every DuckDB slot after
    // each, so DuckDB samples cover the whole run rather than one moment
    // of it. Every slot runs at least once; then the loop stops when the
    // time is up, also within a pass: metrics are per query, so the mix
    // need not be whole.
    var visits = 0
    def more = visits < sparkSlots.size || elapsed < seconds * 1e9
    while (more) {
      tracedOpRuns += visit(sparkSlots(visits % sparkSlots.size), SparkSlotMs)
      visits += 1
      if (more) duckSlots.foreach(s => tracedOpRuns += visit(s, DuckSlotMs))
    }
    passes = visits.toDouble / sparkSlots.size
    measuredSeconds = elapsed / 1e9
    gcMs = gcMillis - gc0
    heapPeakBytes = heapPools.map(_.getPeakUsage.getUsed).sum
  }

  def close(): Unit = loaded.close()

  /** Per-query medians and sample counts of every operation, one line
    * per operation.
    */
  def perQueryTable: Seq[String] = {
    val by = samples.groupBy(s => (s.op, s.query))
    (f"${"operation"}%-24s" + queries.map(q => f"${q.name}%20s").mkString) +:
      samples.map(_.op).distinct.toVector.map(o => f"$o%-24s" + queries.map(q =>
        by.get((o, q.name)).map(v => f"${Summary.median(v.map(_.ms).toSeq)}%12.1f (n=${v.size}%3d)")
          .getOrElse(f"${"-"}%20s")).mkString)
  }

  // ---------------------------------------------------------- metrics --

  def queries: Vector[Query] = loaded.queries

  private def of(op: String): Seq[Double] = samples.filter(_.op == op).map(_.ms).toSeq

  private def perQuery(op: String): Map[String, Double] =
    samples.filter(_.op == op).groupBy(_.query).map { case (k, v) => k -> Summary.median(v.map(_.ms).toSeq) }

  /** `.p50` is each query's median, averaged over the queries. A median
    * pooled over queries of different cost falls in the gap between them
    * and moves with their extremes; a geometric mean gives a query that
    * takes a tenth of a millisecond as much weight as one that takes a
    * second. `.tail` is pooled.
    */
  private def timing(name: String, op: String, withTail: Boolean): Seq[Metric] = {
    val xs = of(op)
    require(xs.nonEmpty, s"no successful samples of $op")
    val med = perQuery(op)
    val n = samples.filter(_.op == op).groupBy(_.query).view.mapValues(_.size).toMap
    val p50 = Metric(s"$name.p50", med.values.sum / med.size, "ms",
      med.keys.toVector.sorted.map(q => s"$q n=${n(q)}").mkString(", "))
    if (!withTail) Seq(p50)
    else {
      val (v, pct) = Summary.tail(xs)
      Seq(p50, Metric(s"$name.tail", v, "ms", f"p$pct%.1f, n=${xs.size}"))
    }
  }

  private def speedup(native: String, plus: String): Metric = {
    val n = perQuery(native)
    val p = perQuery(plus)
    val both = n.keySet.intersect(p.keySet).toVector.sorted
    Metric(s"speedup_${plus.stripPrefix("plus_")}", Summary.geomean(both.map(k => n(k) / p(k))),
      "x", s"${both.size} queries")
  }

  def endToEnd: Seq[Metric] = Seq(
    Metric("setup_s", Summary.median(setupSeconds.toSeq), "s", s"n=${setupSeconds.size}")) ++
    timing("plus_spark_ms", "plus_spark", withTail = true) ++
    Seq(Metric("plus_spark_pass_s", perQuery("plus_spark").values.sum / 1000, "s",
      s"${perQuery("plus_spark").size} queries, per-query medians")) ++
    timing("native_spark_ms", "native_spark", withTail = false) ++
    timing("classic_spark_ms", "classic_spark", withTail = false) ++
    timing("catalyst_spark_ms", "catalyst_spark", withTail = false) ++
    timing("plus_duck_ms", "plus_duck", withTail = true) ++
    timing("native_duck_ms", "native_duck", withTail = false) ++
    Seq(speedup("native_spark", "plus_spark"), speedup("native_duck", "plus_duck")) ++
    timing("plan_ms", "plan", withTail = false)

  def perLayer: Seq[Metric] = {
    val spans = tracer.spans
    def opOf(s: Span): String = opOfQuery.get(s.query).map(_._2).getOrElse("")
    val runs = opOfQuery.values.groupBy(_._2).view.mapValues(_.size).toMap
    // mean time per query run of `op` spent in spans called `name`
    def spanMs(name: String, op: String): Metric = {
      val total = spans.filter(s => s.name == name && opOf(s) == op).map(_.nanos).sum
      Metric(s"${name}_ms", total / 1e6 / math.max(1, runs.getOrElse(op, 0)), "ms", s"per $op run")
    }
    def meanCount(name: String, unit: String, as: String = ""): Metric = {
      val xs = counts.filter(_._2 == name).map(_._3)
      Metric(if (as.isEmpty) name else as, if (xs.isEmpty) 0.0 else xs.sum / xs.size, unit,
        s"mean of ${xs.size}")
    }
    val traced = of("plus_spark_traced")
    val untraced = of("plus_spark_untraced")
    // bags of more than one atom: single-atom bags keep the base instance
    val bagRows = queries.map { q =>
      val tr = new Tracer(true)
      val (_, inst, _, _) = acyclifyLayered(tr, q.w)
      val base = q.w.instances.values.toSet
      if (!tr.spans.exists(_.name == "ghd.materialize")) 0.0
      else inst.values.filterNot(base).map(_.count().toDouble).sum
    }.sum
    Seq(
      spanMs("workloads.acyclify", "plus_spark"),
      Metric("ghd.bag_rows", bagRows, "count", "one pass, all queries"),
      spanMs("ghd.decompose", "plus_spark"),
      spanMs("opt.stats", "plus_spark"),
      meanCount("opt.stats_miss", "ratio", "opt.stats_miss_rate"),
      spanMs("opt.enumerate", "plus_spark"),
      meanCount("opt.plans_costed", "count"),
      spanMs("core.plan", "plus_spark").copy(name = "core.plan_ms.plus"),
      spanMs("core.plan", "classic_spark").copy(name = "core.plan_ms.classic")) ++
      Seq("plus", "classic").flatMap(m =>
        Seq("semijoins", "joins", "agg_projects", "shared_ops").map(k =>
          meanCount(s"core.ir_$k.$m", "count"))) ++
      Seq(
        spanMs("core.executor_build", "plus_spark"),
        spanMs("spark.exec", "plus_spark"),
        meanCount("spark.exchanges", "count"),
        meanCount("spark.reused_exchanges", "count"),
        meanCount("spark.jobs", "count"),
        meanCount("spark.stages", "count"),
        meanCount("spark.tasks", "count"),
        meanCount("spark.shuffle_write_mb", "MB"),
        meanCount("spark.rows_per_output", "ratio"),
        meanCount("spark.persist_mb", "MB"),
        spanMs("core.sqlgen", "plus_duck"),
        meanCount("core.sql_statements", "count"),
        spanMs("duck.exec", "plus_duck"),
        spanMs("duck.native_exec", "native_duck"),
        meanCount("duck.scan_ratio", "ratio"),
        meanCount("catalyst.rewritten", "ratio", "catalyst.rewrite_rate"),
        spanMs("catalyst.optimize", "catalyst_spark"),
        Metric("jvm.gc_ms", gcMs.toDouble / math.max(1, tracedOpRuns), "ms", "per operation"),
        Metric("jvm.heap_peak_mb", heapPeakBytes / 1e6, "MB", "sum of heap pool peaks"),
        Metric("trace.overhead_ms", Summary.median(traced) - Summary.median(untraced), "ms",
          f"plus_spark p50 traced ${Summary.median(traced)}%.1f vs untraced ${Summary.median(untraced)}%.1f"),
      )
  }
}

object Driver {

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 2

  /** DuckDB threads. Its queries here take milliseconds: on one thread
    * tpch-pkfk's `plus` took 6–7 ms with a p95 of 8–9 ms, on four
    * 7.5–9.5 ms with a p95 of 9–15 ms, while the JVM's own threads ran.
    */
  val DuckThreads = 1

  /** Time budget of one visit to a slot: it repeats until this is spent.
    * Spark queries take longer and run once a visit; `plan` on an acyclic
    * query takes milliseconds and repeats.
    */
  val SparkSlotMs = 250.0
  val DuckSlotMs = 120.0
  val WarmupSlotMs = 300.0

  final case class Loaded(queries: Vector[Query], ducks: Vector[DuckRunner]) {
    def close(): Unit = { queries.foreach(_.w.uncache()); ducks.foreach(_.close()) }
  }

  /** An operation a user runs; `applies` picks the queries it runs on. */
  final case class Op(name: String, applies: Query => Boolean,
                      run: (Query, DuckRunner) => Unit)

  final case class Slot(op: Op, q: Query, d: DuckRunner)

  /** Run a plan's DuckDB script, hand the statement and script to `body`
    * after the views exist, then drop the views.
    */
  def duckScript[T](d: DuckRunner, plan: Plan)(body: (java.sql.Statement, SqlGen.Script) => T): T = {
    val s = SqlGen.script(plan, SqlGen.DuckDialect)
    val st = d.conn.createStatement()
    try {
      s.statements.foreach(st.execute)
      body(st, s)
    } finally {
      st.close()
      // a failed statement may leave `st` unusable: drop through a new one
      val drop = d.conn.createStatement()
      try s.viewNames.reverse.foreach(v => drop.execute(s"DROP VIEW IF EXISTS $v"))
      finally drop.close()
    }
  }
}
