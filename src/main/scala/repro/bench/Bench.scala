package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.duck.DuckRunner
import repro.opt.{PlanEnumerator, EstimatedCE}
import repro.workloads._

/** Benchmark engine of the `bench/` ScalaTest suites: one function per
  * evaluation table of the paper, each returning printable rows
  * (paper-vs-measured numbers are recorded in EXPERIMENTS.md). Every
  * timing cell comes from [[time]].
  */
object Bench {

  final case class Row(cells: Vector[String])
  final case class Table(title: String, header: Vector[String], rows: Vector[Row]) {
    def render: String = {
      val all = header +: rows.map(_.cells)
      val widths = header.indices.map(i => all.map(_(i).length).max)
      def fmt(r: Vector[String]) =
        r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
      (s"\n=== $title ===" +: fmt(header) +:
        widths.map("-" * _).mkString("  ") +: rows.map(r => fmt(r.cells)))
        .mkString("\n") + "\n"
    }
  }

  def f3(d: Double): String = f"$d%.3f"
  def f2(d: Double): String = f"$d%.2f"

  /** What one timing cell evaluates: a method, its CE mode and a change to
    * the workload's rule configuration.
    */
  final case class Variant(label: String, method: Runner.Method,
                           ceMode: Runner.CeMode = Runner.CeEstimated,
                           rules: RuleConfig => RuleConfig = identity)

  object Variant {
    /** The method as is, under its own label. */
    def apply(m: Runner.Method): Variant = Variant(m.label, m)
  }

  /** Timed runs per cell, after one untimed run. */
  val Reps = 3

  /** Seconds for one cell: the median of [[Reps]] timed runs after one
    * untimed run. Each run includes planning, as in the paper (§7). On
    * Spark a run writes `Runner.run`'s result to a `noop` sink, which
    * computes every output column (a `count()` would let Catalyst prune the
    * aggregates). On `duck`, which must hold the workload's instances, it
    * reads the whole result of `runNative`, or of `runScript` on the plan
    * `Runner.plan` gives.
    */
  def time(w: Workload, v: Variant, duck: Option[DuckRunner] = None): Double = {
    val wv = w.copy(cfg = v.rules(w.cfg))
    def once(): Double = {
      val t0 = System.nanoTime()
      (duck, v.method) match {
        case (Some(d), Runner.Native) => d.runNative(wv.cq)
        case (Some(d), m) => d.runScript(Runner.plan(wv, m, v.ceMode)._1)
        case (None, m) =>
          val r = Runner.run(wv, m, v.ceMode)
          try r.df.write.format("noop").mode("overwrite").save()
          finally r.cleanup()
      }
      (System.nanoTime() - t0) / 1e9
    }
    once()
    Vector.fill(Reps)(once()).sorted.apply(Reps / 2)
  }

  private def summary(xs: Seq[Double]): (Double, Double, Double, Double) = {
    val s = xs.sorted
    val mean = xs.sum / xs.size
    (s.last, mean, s(s.size / 2),
      math.sqrt(xs.map(x => (x - mean) * (x - mean)).sum / xs.size))
  }

  /** One JOB-lite query's cells: a time per variant on each engine. */
  private final case class Cells(query: String, spark: Vector[Double], duck: Vector[Double])

  /** Times every variant on the JOB-lite queries `keep` selects, at `mult`. */
  private def jobGrid(spark: SparkSession, mult: Double, keep: String => Boolean,
                      variants: Seq[Variant]): Vector[Cells] = {
    val wls = JobLite.workloads(JobLite.tables(spark, mult))
      .filter(p => keep(p._1)).map { case (n, w) => n -> w.cached }
    val duck = new DuckRunner
    try wls.map { case (name, w) =>
      duck.loadInstances(w.instances)
      Cells(name, variants.map(time(w, _)).toVector,
        variants.map(time(w, _, Some(duck))).toVector)
    } finally {
      duck.close()
      wls.foreach(_._2.uncache())
    }
  }

  /** One row per query and engine: query, engine, then a time per variant. */
  private def engineRows(grid: Vector[Cells]): Vector[Row] = grid.flatMap { c =>
    Vector(Row(c.query +: "spark" +: c.spark.map(f3)), Row(c.query +: "duck" +: c.duck.map(f3)))
  }

  // ----------------------------------------------------------- Table 2 --

  /** Table 2: JOB running-time statistics per engine × method. */
  def table2(spark: SparkSession, mult: Double = 2.0): (Table, Table) = {
    val methods = Vector[Runner.Method](Runner.Native, Runner.Classic, Runner.Plus)
    val grid = jobGrid(spark, mult, _ => true, methods.map(Variant(_)))

    val header = Vector("query") ++ methods.map(m => s"spark/${m.label}") ++
      methods.map(m => s"duck/${m.label}")
    val t2a = Table(s"Table 2 -- JOB-lite per-query times (s), mult=$mult", header,
      grid.map(c => Row(c.query +: (c.spark ++ c.duck).map(f3))))

    def statRows(engine: String, times: Vector[Vector[Double]]): Vector[Row] =
      methods.indices.toVector.map { i =>
        val (mx, mean, med, sd) = summary(times.map(_(i)))
        Row(Vector(s"$engine ${methods(i).label}", f3(mx), f3(mean), f3(med), f3(sd)))
      }
    val t2b = Table("Table 2 -- JOB statistics (Max / Mean / Median / StdDev, seconds)",
      Vector("method", "max", "mean", "med", "stddev"),
      statRows("SparkSQL", grid.map(_.spark)) ++ statRows("DuckDB", grid.map(_.duck)))
    (t2a, t2b)
  }

  // ----------------------------------------------------------- Table 3 --

  /** Table 3: rule-based optimization ablation on JOB 1a and 4a. */
  def table3(spark: SparkSession, mult: Double = 2.0): Table = {
    def rules(pkFk: Boolean, annot: Boolean)(c: RuleConfig): RuleConfig =
      c.copy(pkFk = pkFk, annotationPruning = annot)
    val variants = Seq(
      Variant("Base", Runner.Native),
      Variant("Primitive", Runner.Plus, rules = rules(pkFk = false, annot = false)),
      Variant("PK-FK", Runner.Plus, rules = rules(pkFk = true, annot = false)),
      Variant("Annot", Runner.Plus, rules = rules(pkFk = false, annot = true)),
      Variant("PK-FK & Annot", Runner.Plus, rules = rules(pkFk = true, annot = true)))
    Table(s"Table 3 -- rule ablation on JOB-lite 1a/4a (s), mult=$mult",
      Vector("query", "engine") ++ variants.map(_.label),
      engineRows(jobGrid(spark, mult, Set("1a", "4a"), variants)))
  }

  // ----------------------------------------------------------- Table 4 --

  /** Table 4: running times under the three CE scenarios vs native. */
  def table4(spark: SparkSession, mult: Double = 2.0): Table = {
    val variants = Seq(
      Variant(Runner.Native),
      Variant("accurate", Runner.Plus, Runner.CeAccurate),
      Variant("estimated", Runner.Plus, Runner.CeEstimated),
      Variant("worst-case bounds", Runner.Plus, Runner.CeWorstCase))
    Table(s"Table 4 -- CE scenarios on JOB-lite (s), mult=$mult",
      Vector("query", "engine") ++ variants.map(_.label),
      engineRows(jobGrid(spark, mult, Set("2b", "8b", "11d", "17c", "27b"), variants)))
  }

  // ----------------------------------------------------------- Table 5 --

  /** Table 5: optimization time vs query size for 12 representative
    * queries, with native and Yannakakis+ runtimes for context.
    */
  def table5(spark: SparkSession): Table = {
    val sgpb = Seq("q1a", "q6").map(n =>
      s"SGPB-$n" -> Sgpb.workload(spark, n, nEdges = 10000, nVertices = 1500))
    val lsqb = {
      val ts = LsqbLite.workloads(LsqbLite.tables(spark, sf = 0.2))
      Seq("q1", "q5").map(n => s"LSQB-$n" -> ts(n))
    }
    val tpch = {
      val t = TpchLite.tables(spark, sf = 0.01)
      Seq("q3" -> TpchLite.q3(t), "q10" -> TpchLite.q10(t), "q19" -> TpchLite.q19(t))
        .map { case (n, w) => s"TPCH-$n" -> w }
    }
    val job = {
      val ws = JobLite.workloads(JobLite.tables(spark, mult = 0.2)).toMap
      Seq("1a", "10c", "21a", "27c", "6a").map(n => s"JOB-$n" -> ws(n))
    }
    val rows = (sgpb ++ lsqb ++ tpch ++ job).map { case (name, w0) =>
      val w = w0.cached
      val tn = time(w, Variant(Runner.Native))
      // statistics and plan search timed on their own, before any
      // Yannakakis+ run has collected the statistics; `stats-time` is the
      // base tables' collection (those of an acyclified query's renamed
      // copy or GHD bags are derived from them, with no Spark job)
      val t0 = System.nanoTime()
      val (cq, inst, cfg, _) = Runner.acyclify(w)
      val stats = Runner.cachedStats(cq, inst)
      val statsSec = (System.nanoTime() - t0) / 1e9
      val t1 = System.nanoTime()
      val choice = PlanEnumerator.best(cq, cfg, new EstimatedCE(cq, stats), stats)
      val planSec = (System.nanoTime() - t1) / 1e9
      val tp = time(w, Variant(Runner.Plus))
      w.uncache()
      Row(Vector(name, f3(tn), f3(tp), w.cq.atoms.size.toString,
        w.cq.attrSet.size.toString, f"$planSec%.4f", f"$statsSec%.3f",
        choice.candidates.toString))
    }.toVector
    Table("Table 5 -- optimization time per query",
      Vector("query", "native (s)", "yannakakis+ (s)", "#tables", "#attributes",
        "opt-time (s)", "stats-time (s)", "#plans costed"),
      rows)
  }

  // ------------------------------------------------- Fig. 9 headline ----

  /** The headline sweep: native vs Yannakakis vs Yannakakis+ across
    * SGPB + LSQB + TPCH (incl. the §1 5-copy story), with speedups.
    */
  def speedups(spark: SparkSession, sgpbEdges: Long = 20000,
               lsqbSf: Double = 0.3, tpchSf: Double = 0.02): Table = {
    val rows = Vector.newBuilder[Row]
    val ratios = Vector.newBuilder[Double]

    def one(name: String, w0: Workload): Unit = {
      val w = w0.cached
      // a DBMS holds table statistics up front; collect them untimed
      Runner.cachedStats(w.cq, w.instances)
      val tn = time(w, Variant(Runner.Native))
      val ty = time(w, Variant(Runner.Classic))
      val tp = time(w, Variant(Runner.Plus))
      w.uncache()
      ratios += tn / tp
      rows += Row(Vector(name, f3(tn), f3(ty), f3(tp), f2(tn / tp) + "x", f2(ty / tp) + "x"))
    }

    Sgpb.queries.foreach(q =>
      one(s"SGPB-${q.name}", Sgpb.workload(spark, q.name, sgpbEdges, sgpbEdges / 8)))
    val lw = LsqbLite.workloads(LsqbLite.tables(spark, lsqbSf))
    (1 to 9).foreach(i => one(s"LSQB-q$i", lw(s"q$i")))
    val t = TpchLite.tables(spark, tpchSf)
    one("TPCH-q9", TpchLite.q9(t))
    one("TPCH-q3", TpchLite.q3(t))
    one("TPCH-q10", TpchLite.q10(t))
    one("TPCH-q19", TpchLite.q19(t))
    one("TPCH-q9(5copy)", TpchLite.q9(TpchLite.withCopies(t, 5), pk = false))

    val rs = ratios.result()
    rows += Row(Vector(s"TOTAL: ${rs.count(_ > 1)}/${rs.size} improved",
      "", "", "", f2(rs.sum / rs.size) + "x avg", f2(rs.max) + "x max"))
    Table("Fig. 9 headline -- native vs Yannakakis vs Yannakakis+ (s)",
      Vector("query", "native", "yannakakis", "yannakakis+",
        "speedup(n/y+)", "speedup(y/y+)"),
      rows.result())
  }
}
