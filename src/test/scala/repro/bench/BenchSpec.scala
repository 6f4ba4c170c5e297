package repro.bench

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.catalyst.expressions.aggregate.Sum
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, V2WriteCommand}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import repro.SparkSpec
import repro.duck.DuckRunner
import repro.workloads.{Runner, TpchLite}

/** The benchmark's timing core: a Spark cell executes the aggregate its
  * query names, and a DuckDB cell is timed. TPC-H-lite q3 sums
  * `l_extendedprice` per order.
  */
class BenchSpec extends SparkSpec {

  private lazy val q3 = TpchLite.q3(TpchLite.tables(spark, sf = 0.002))

  /** Successful executions, as (action name, execution), in order. */
  private val seen = new ConcurrentLinkedQueue[(String, QueryExecution)]
  private val listener = new QueryExecutionListener {
    def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
      seen.add(funcName -> qe)
    def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
  }

  /** The executions `body` triggers that satisfy `p`, once `n` of them have
    * been reported (listener events arrive asynchronously).
    */
  private def executions(p: ((String, QueryExecution)) => Boolean, n: Int)(
      body: => Unit): Vector[QueryExecution] = {
    seen.clear()
    body
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    def matching = seen.asScala.filter(p).map(_._2).toVector
    while (matching.size < n && System.nanoTime() < deadline) Thread.sleep(10)
    matching
  }

  private def isWrite(e: (String, QueryExecution)): Boolean =
    e._2.optimizedPlan.exists(_.isInstanceOf[V2WriteCommand])

  private def hasSum(plan: LogicalPlan): Boolean =
    plan.exists(_.expressions.exists(_.exists(_.isInstanceOf[Sum])))

  test("a Spark cell executes the SUM its query names; count() would prune it") {
    spark.listenerManager.register(listener)
    try {
      for (m <- Seq(Runner.Native, Runner.Classic, Runner.Plus)) {
        val writes = executions(isWrite, 1 + Bench.Reps)(Bench.time(q3, Bench.Variant(m)))
        assert(writes.size == 1 + Bench.Reps, m)
        writes.foreach(qe => assert(hasSum(qe.optimizedPlan), s"$m: ${qe.optimizedPlan}"))

        val r = Runner.run(q3, m)
        val counts = try executions(_._1 == "count", 1)(r.df.count()) finally r.cleanup()
        assert(counts.size == 1, m)
        assert(!hasSum(counts.head.optimizedPlan), s"$m: ${counts.head.optimizedPlan}")
      }
    } finally spark.listenerManager.unregister(listener)
  }

  test("a DuckDB cell returns a positive time") {
    val d = new DuckRunner
    try {
      d.loadInstances(q3.instances)
      for (m <- Seq(Runner.Native, Runner.Classic, Runner.Plus))
        assert(Bench.time(q3, Bench.Variant(m), Some(d)) > 0, m)
    } finally d.close()
  }
}
