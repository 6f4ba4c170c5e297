package repro.workloads

import org.apache.spark.sql.DataFrame
import repro.core._

/** A bound benchmark query: the CQ, its instances (pre-filtered, columns
  * renamed to the logical attributes), the rule-config facts (keys,
  * referential integrity), and descriptive metadata for the evaluation
  * tables.
  *
  * @param predicates number of selection predicates pushed into the
  *                   instances (Table 6 column)
  */
final case class Workload(
    cq: CQ,
    instances: CQ.Instances,
    cfg: RuleConfig = RuleConfig.default,
    predicates: Int = 0,
) {
  /** Table 6 "Type" column, derived from the query structure. */
  def queryType: String =
    if (cq.aggs.nonEmpty) "Aggregation"
    else if (cq.distinctOutput) "Projection"
    else "Full Enumerate"

  /** Caches every instance so repeated benchmark runs measure the join
    * pipeline, not the generators.
    */
  def cached: Workload = {
    val c = instances.map { case (k, df) => k -> df.persist() }
    c.values.foreach(_.count()) // force
    copy(instances = c)
  }

  def uncache(): Unit = instances.values.foreach(_.unpersist(blocking = false))
}

object Workload {
  /** Shorthand for a filtered + renamed atom instance. */
  def inst(df: DataFrame, renames: (String, String)*): DataFrame =
    renames.foldLeft(df) { case (d, (from, to)) => d.withColumnRenamed(from, to) }
      .select(renames.map(_._2).map(org.apache.spark.sql.functions.col): _*)
}
