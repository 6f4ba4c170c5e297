package repro.core

import org.apache.spark.sql.CatalystAccess.{column, ofRows}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Runs a [[Plan]] on Spark: the instances become scan leaves, [[Lower]]
  * turns the plan into one Catalyst logical plan, and the result is that
  * plan as a DataFrame. Operators used by more than one parent in the DAG
  * are persisted so Spark does not recompute them (callers release them
  * via [[ExecResult.cleanup]]). Their caches are built with AQE allowed to
  * coalesce the cached plan's output partitions: by default Spark keeps a
  * cached shuffle at `spark.sql.shuffle.partitions` partitions, so a small
  * shared aggregate would be stored, and read back by every parent, as
  * that many mostly empty partitions.
  */
object Executor {

  final case class ExecResult(df: DataFrame, persisted: Seq[DataFrame]) {
    def cleanup(): Unit = persisted.foreach(_.unpersist(blocking = false))
  }

  /** Run `plan` over the given instances; the result has the output
    * attributes plus one column per aggregate (aliased).
    */
  def run(plan: Plan, instances: CQ.Instances): ExecResult = {
    CQ.validateInstances(plan.cq, instances)
    val spark = instances.head._2.sparkSession
    val lower = new Lower(plan, scanLeaf(plan.cq, instances))

    // Parent counts over the structurally-deduped DAG decide persistence.
    val parentCount = collection.mutable.Map.empty[Op, Int].withDefaultValue(0)
    plan.ops.foreach(_.children.foreach(c => parentCount(c) += 1))
    val persisted = withCachedPartitioningChangeable(spark) {
      plan.ops.collect {
        case op if parentCount(op) > 1 && !op.isInstanceOf[Scan] =>
          ofRows(spark, lower(op).plan).persist()
      }
    }
    ExecResult(ofRows(spark, lower.result), persisted)
  }

  private val ChangeCachedPartitioning =
    "spark.sql.optimizer.canChangeCachedPlanOutputPartitioning"

  /** Evaluate `body` with [[ChangeCachedPartitioning]] on, then restore the
    * caller's setting (unset, `true` or `false`). `persist()` plans the
    * cache in a session cloned from the conf it sees, so the scope is
    * enough for every cache built inside it.
    */
  private def withCachedPartitioningChangeable[T](spark: SparkSession)(body: => T): T = {
    val conf = spark.conf
    val prior = conf.getAll.get(ChangeCachedPartitioning)
    conf.set(ChangeCachedPartitioning, true)
    try body
    finally prior.fold(conf.unset(ChangeCachedPartitioning))(conf.set(ChangeCachedPartitioning, _))
  }

  /** The scan of an atom: its attributes (re-aliased, so atoms bound to
    * one DataFrame stay distinct) and its annotation columns typed by the
    * semiring.
    */
  private def scanLeaf(cq: CQ, instances: CQ.Instances)(s: Scan): Lower.Node = {
    val annotCols = s.annots.toVector.sorted.map { i =>
      val a = cq.aggs(i)
      val e = a.perAtom.get(s.atomId) match {
        case Some(e) => expr(e)
        case None    => // eager identity (annotation pruning disabled)
          column(a.semiring.one.getOrElse(throw new IllegalStateException(
            s"${cq.name}: scan ${s.atomId} asked to materialize identity of ${a.alias}")))
      }
      e.cast(a.semiring.dataType).as(Lower.v(i))
    }
    val leaf = instances(s.atomId).select(s.attrs.map(x => col(x).as(x)) ++ annotCols: _*)
      .queryExecution.analyzed
    val out = leaf.output.map(a => a.name -> a).toMap
    Lower.Node(leaf, s.attrs.map(x => x -> out(x)).toMap,
      s.annots.map(i => i -> out(Lower.v(i))).toMap)
  }

  /** Evaluate a single operator (no finishing π/aliasing) — used by the
    * exact cardinality estimator to count intermediates, and to build
    * GHD bags.
    */
  def materialize(cq: CQ, op: Op, instances: CQ.Instances): DataFrame =
    ofRows(instances.head._2.sparkSession,
      new Lower(Plan(cq, op), scanLeaf(cq, instances))(op).plan)

  /** Run the query's *native* flat SQL through Catalyst (the engine's own
    * plan) — registers the instances as temp views named by atom id.
    */
  def runNative(cq: CQ, instances: CQ.Instances): DataFrame = {
    CQ.validateInstances(cq, instances)
    val spark = instances.head._2.sparkSession
    instances.foreach { case (id, df) => df.createOrReplaceTempView(id) }
    spark.sql(cq.sparkSql)
  }
}
