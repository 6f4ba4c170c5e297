package repro.workloads

import java.lang.ref.SoftReference

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.ghd.GHD
import repro.opt._

/** Evaluates a [[Workload]] with one of the competing methods — the
  * paper's native, Yannakakis and Yannakakis+ rows, the last deployed two
  * ways:
  *
  *  - [[Runner.Native]]          — the engine's own plan (flat SQL through
  *                                 Catalyst);
  *  - [[Runner.Classic]]         — the vanilla Yannakakis algorithm;
  *  - [[Runner.Plus]]            — Yannakakis+ with the rule- and
  *                                 cost-based optimizer;
  *  - [[Runner.PlusSql]]         — Yannakakis+ deployed as one rewritten
  *                                 SQL query (the paper's §6 architecture)
  *                                 executed through `spark.sql`.
  *
  * Cyclic queries: Native runs the flat SQL as-is; the Yannakakis methods
  * first acyclify — by the §5.1 cycle-elimination rule when key facts are
  * declared (the TPC-H Q5 pattern), otherwise by GHD (§4.1).
  */
object Runner {

  sealed trait Method { def label: String }
  case object Native extends Method { val label = "native" }
  case object Classic extends Method { val label = "yannakakis" }
  case object Plus extends Method { val label = "yannakakis+" }
  case object PlusSql extends Method { val label = "yannakakis+(sql)" }

  sealed trait CeMode
  case object CeEstimated extends CeMode
  case object CeAccurate extends CeMode
  case object CeWorstCase extends CeMode

  final case class RunResult(df: DataFrame, cleanups: Vector[() => Unit]) {
    def cleanup(): Unit = cleanups.foreach(_.apply())
  }

  def run(w: Workload, method: Method, ceMode: CeMode = CeEstimated,
          optimize: Boolean = true): RunResult = method match {
    case Native =>
      RunResult(Executor.runNative(w.cq, w.instances), Vector.empty)
    case Classic | Plus =>
      val (p, inst, fin) = plan(w, method, ceMode, optimize)
      val res = Executor.run(p, inst)
      RunResult(fin(res.df), Vector(() => res.cleanup()))
    case PlusSql =>
      val (p, inst, fin) = plan(w, method, ceMode, optimize)
      inst.foreach { case (id, df) => df.createOrReplaceTempView(id) }
      val spark = inst.head._2.sparkSession
      RunResult(fin(spark.sql(SqlGen.script(p).finalQuery)), Vector.empty)
  }

  /** The plan a Yannakakis method evaluates: acyclify, then the default-tree
    * [[Yannakakis]] plan for Classic or [[planPlus]] for Plus/PlusSql.
    * Returns the plan, the instances it reads and the finishing step for
    * its result.
    */
  def plan(w: Workload, method: Method, ceMode: CeMode = CeEstimated,
           optimize: Boolean = true): (Plan, CQ.Instances, DataFrame => DataFrame) = {
    require(method != Native, "native evaluation has no Yannakakis plan")
    val (cq, inst, cfg, fin) = acyclify(w)
    val p =
      if (method == Classic) Yannakakis.plan(cq, JoinTree.defaultTree(cq))
      else planPlus(cq, inst, cfg, ceMode, optimize)
    (p, inst, fin)
  }

  // Statistics — a DBMS keeps table statistics up front (the paper's
  // optimizer reads them from the engine), so repeated runs must not
  // recollect them. `Stats` holds them per instance DataFrame and derives
  // those of the relations acyclify builds (a renamed copy, GHD bags), so
  // a run over base tables with known statistics starts no statistics
  // job. An ExactCE is memoized per instance map (its DataFrames compare
  // by reference), held weakly so an entry goes away with its instances,
  // and softly as a value: a strong one would keep its own key alive.
  private val exactCache = new java.util.WeakHashMap[CQ.Instances, SoftReference[ExactCE]]

  /** Every atom's statistics: known, derived or collected ([[Stats.of]]). */
  def cachedStats(cq: CQ, inst: CQ.Instances): Map[String, AtomStats] = Stats.of(cq, inst)

  private def cachedExact(cq: CQ, inst: CQ.Instances): ExactCE = exactCache.synchronized {
    Option(exactCache.get(inst)).flatMap(r => Option(r.get)).getOrElse {
      val ce = new ExactCE(cq, inst); exactCache.put(inst, new SoftReference(ce)); ce
    }
  }

  /** Choose a Yannakakis+ plan: cost-based over the enumerated join trees
    * when `optimize`, else the deterministic default tree.
    */
  def planPlus(cq: CQ, inst: CQ.Instances, cfg: RuleConfig,
               ceMode: CeMode, optimize: Boolean): Plan = {
    if (!optimize)
      return YannakakisPlus.plan(cq, JoinTree.defaultTree(cq), cfg)
    val stats = cachedStats(cq, inst)
    val ce: CardEstimator = ceMode match {
      case CeEstimated => new EstimatedCE(cq, stats)
      case CeAccurate  => cachedExact(cq, inst)
      case CeWorstCase => new WorstCaseCE(cq, stats, cfg)
    }
    // exact counting is expensive — keep its candidate pool small
    val costCap = if (ceMode == CeAccurate) 8 else 48
    PlanEnumerator.best(cq, cfg, ce, stats, costCap = costCap).plan
  }

  /** Make the query acyclic if it is not: cycle elimination when key
    * facts exist (paper §5.1), GHD otherwise (§4.1). Returns the working
    * (cq, instances, cfg) and a finishing step for the result.
    */
  def acyclify(w: Workload): (CQ, CQ.Instances, RuleConfig, DataFrame => DataFrame) = {
    if (Hypergraph.isAcyclic(w.cq))
      return (w.cq, w.instances, w.cfg, identity)
    if (w.cfg.uniqueKeys.nonEmpty) {
      CycleElimination(w.cq) match {
        case Some(r) =>
          val (atomId, from, _) = r.renamed
          // Key/integrity facts on the renamed attribute are dropped.
          val cfg2 = w.cfg.copy(
            uniqueKeys = w.cfg.uniqueKeys.map { case (id, ks) =>
              id -> (if (id == atomId) ks.filterNot(_.contains(from)) else ks)
            }.filter(_._2.nonEmpty),
            refIntegrity = w.cfg.refIntegrity
              .filterNot { case (a, b) => a == atomId || b == atomId })
          return (r.cq, r.rebind(w.instances), cfg2, r.finish)
        case None => // fall through to GHD
      }
    }
    val stats = cachedStats(w.cq, w.instances)
    val dec = GHD.bestDecomposition(w.cq, stats).getOrElse(
      throw new IllegalStateException(s"${w.cq.name}: no GHD found"))
    val (cq2, inst2) = GHD.materialize(w.cq, w.instances, dec)
    (cq2, inst2, RuleConfig.default, identity)
  }
}
