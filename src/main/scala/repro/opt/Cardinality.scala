package repro.opt

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{approx_count_distinct, count, lit}
import repro.core._

/** Per-atom statistics: row count and per-attribute NDVs — for a base
  * table, the "basic statistical information from the base tables" of
  * paper §5.2.
  */
final case class AtomStats(rows: Double, ndv: Map[String, Double])

/** Statistics per instance DataFrame, over all its columns. A base
  * table's are collected once (one Spark job: its row count and
  * HyperLogLog NDVs). A relation the planner builds from others — cycle
  * elimination's renamed copy, a GHD bag — is registered with [[derive]],
  * and its statistics are computed from its sources' when first asked
  * for, with no Spark job, as paper §5.2 estimates everything above the
  * base tables: the renamed copy's are its source's, a bag's are
  * [[EstimatedCE]]'s estimate of its join. Entries are keyed by the
  * DataFrame (by reference) and held weakly, so each goes away with its
  * instance.
  */
object Stats {

  /** A DataFrame's statistics once known, and how they are derived
    * (`None`: collected from the DataFrame itself).
    */
  private final class Entry(val derivation: Option[() => AtomStats]) {
    var known: Option[AtomStats] = None
  }

  private val entries = new java.util.WeakHashMap[DataFrame, Entry]

  /** Collect the statistics of every atom's instance, one Spark job per
    * atom, whatever is already known.
    */
  def collect(cq: CQ, instances: CQ.Instances): Map[String, AtomStats] =
    cq.atoms.map(a => a.id -> collectOne(instances(a.id), a.attrs)).toMap

  private def collectOne(df: DataFrame, attrs: Seq[String]): AtomStats = {
    val aggs = count(lit(1)).as("__rows") +:
      attrs.map(x => approx_count_distinct(x).as(s"__ndv_$x"))
    val row = df.agg(aggs.head, aggs.tail: _*).collect()(0)
    val ndv = attrs.map(x =>
      x -> math.max(1.0, row.getAs[Long](s"__ndv_$x").toDouble)).toMap
    AtomStats(math.max(row.getAs[Long]("__rows").toDouble, 1.0), ndv)
  }

  /** Every atom's statistics: known, derived or collected. */
  def of(cq: CQ, instances: CQ.Instances): Map[String, AtomStats] =
    cq.atoms.map(a => a.id -> of(instances(a.id), a.attrs)).toMap

  /** `df`'s statistics on `attrs`: known, derived or collected. */
  def of(df: DataFrame, attrs: Seq[String]): AtomStats = entries.synchronized {
    val e = entries.computeIfAbsent(df, _ => new Entry(None))
    val all = e.known.getOrElse {
      val s = e.derivation.fold(collectOne(df, df.columns.toSeq))(_())
      e.known = Some(s); s
    }
    AtomStats(all.rows, attrs.map(x => x -> all.ndv(x)).toMap)
  }

  /** Register `df` as derived: `derivation` gives its statistics on all
    * its columns from its sources' and runs only when they are first
    * asked for. It must not hold `df`, which would keep the entry alive.
    * Returns `df`.
    */
  def derive(df: DataFrame)(derivation: => AtomStats): DataFrame = {
    entries.synchronized(entries.put(df, new Entry(Some(() => derivation))))
    df
  }
}

/** Estimated cardinalities under the classic uniformity/independence
  * assumptions (paper §7.2.3 "Estimated Cardinality"): join selectivity
  * `1 / max(ndv_l, ndv_r)` per join attribute, semi-join selectivity
  * `min(1, ndv_r / ndv_l)`, projection size bounded by the NDV product.
  */
final class EstimatedCE(cq: CQ, stats: Map[String, AtomStats]) extends CardEstimator {

  private val memo = collection.mutable.Map.empty[Op, AtomStats]

  /** The estimated statistics of `op`'s output. */
  def est(op: Op): AtomStats = memo.getOrElseUpdate(op, op match {
    case s: Scan => stats(s.atomId)
    case p: Project =>
      val c = est(p.child)
      if (!p.dedupe) AtomStats(c.rows, c.ndv.view.filterKeys(p.keep.toSet).toMap)
      else {
        val ndvKeep = p.keep.map(x => c.ndv.getOrElse(x, c.rows))
        val bound = ndvKeep.foldLeft(1.0)((a, b) => math.min(a * b, 1e18))
        AtomStats(math.min(c.rows, bound), c.ndv.view.filterKeys(p.keep.toSet).toMap)
      }
    case j: Join =>
      val l = est(j.left); val r = est(j.right)
      val common = j.left.attrSet & j.right.attrSet
      val sel = common.foldLeft(1.0) { (acc, x) =>
        acc / math.max(1.0, math.max(l.ndv.getOrElse(x, l.rows), r.ndv.getOrElse(x, r.rows)))
      }
      val rows = math.max(1.0, l.rows * r.rows * sel)
      val ndv = (l.ndv.keySet ++ r.ndv.keySet).map { x =>
        val n = math.min(l.ndv.getOrElse(x, Double.MaxValue),
          r.ndv.getOrElse(x, Double.MaxValue))
        x -> math.min(n, rows)
      }.toMap
      AtomStats(rows, ndv)
    case sj: SemiJoin =>
      val l = est(sj.left); val r = est(sj.right)
      val common = sj.left.attrSet & sj.right.attrSet
      val sel = common.foldLeft(1.0) { (acc, x) =>
        val nl = l.ndv.getOrElse(x, l.rows)
        val nr = r.ndv.getOrElse(x, r.rows)
        acc * math.min(1.0, nr / math.max(nl, 1.0))
      }
      val rows = math.max(1.0, l.rows * sel)
      AtomStats(rows, l.ndv.view.mapValues(n => math.min(n, rows)).toMap)
  })

  def estimate(op: Op): Double = est(op).rows
}

/** Worst-case bounds (paper §7.2.3 "Worst-Case Bounds"): joins are
  * Cartesian products unless the join attributes cover a declared unique
  * key; projections and semi-joins never shrink anything.
  */
final class WorstCaseCE(cq: CQ, stats: Map[String, AtomStats],
                        cfg: RuleConfig = RuleConfig.default) extends CardEstimator {

  private val keys = new PlannerUtil.Keys(cfg)
  private val memo = collection.mutable.Map.empty[Op, Double]

  def estimate(op: Op): Double = memo.getOrElseUpdate(op, op match {
    case s: Scan      => stats(s.atomId).rows
    case p: Project   => estimate(p.child)
    case j: Join =>
      val (lr, rr) = (estimate(j.left), estimate(j.right))
      val common = j.left.attrSet & j.right.attrSet
      val lBound = if (keys(j.right).exists(_.subsetOf(common))) lr else lr * rr
      val rBound = if (keys(j.left).exists(_.subsetOf(common))) rr else lr * rr
      math.min(math.min(lBound, rBound), 1e18)
    case sj: SemiJoin => estimate(sj.left)
  })
}

/** Exact cardinalities — executes each sub-operator once and counts
  * (paper §7.2.3 "Accurate Cardinality"). Memoized; meant for the Table 4
  * scenario study, not production planning.
  */
final class ExactCE(cq: CQ, instances: CQ.Instances) extends CardEstimator {
  private val memo = collection.mutable.Map.empty[Op, Double]

  def estimate(op: Op): Double = memo.getOrElseUpdate(op,
    Executor.materialize(cq, op, instances).count().toDouble)
}
