package perfbench

import java.util.concurrent.{Executors, ThreadFactory, TimeUnit}
import java.util.concurrent.atomic.AtomicLong

import scala.util.control.NonFatal

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.exchange.{Exchange, ReusedExchangeExec}
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.util.QueryExecutionListener

/** Spark job, stage, task and shuffle counters, read from outside the
  * program through a listener the benchmark registers.
  */
final class EngineCounters extends SparkListener {
  private val jobs = new AtomicLong
  private val stages = new AtomicLong
  private val tasks = new AtomicLong
  private val shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    stages.incrementAndGet()
    Option(e.stageInfo.taskMetrics).foreach(m =>
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten))
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()

  def snapshot: EngineCounters.Snap =
    EngineCounters.Snap(jobs.get, stages.get, tasks.get, shuffleBytes.get)
}

object EngineCounters {
  final case class Snap(jobs: Long, stages: Long, tasks: Long, shuffleBytes: Long) {
    def -(o: Snap): Snap =
      Snap(jobs - o.jobs, stages - o.stages, tasks - o.tasks, shuffleBytes - o.shuffleBytes)
  }
}

/** Keeps the last successful query execution, to read its executed plan. */
final class LastExecution extends QueryExecutionListener {
  @volatile var last: Option[QueryExecution] = None
  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    last = Some(qe)
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
}

/** Counts over an executed physical plan, looking inside adaptive plans
  * and query stages.
  */
object PlanCounts extends AdaptiveSparkPlanHelper {
  final case class Counts(exchanges: Int, reusedExchanges: Int, joinAggRows: Long)

  def of(plan: SparkPlan): Counts = {
    val exchanges = collect(plan) { case e: Exchange => e }.size
    val reused = collect(plan) { case r: ReusedExchangeExec => r }.size
    val rows = collect(plan) {
      case p: BaseJoinExec      => rowsOut(p)
      case p: BaseAggregateExec => rowsOut(p)
    }.sum
    Counts(exchanges, reused, rows)
  }

  private def rowsOut(p: SparkPlan): Long =
    p.metrics.get("numOutputRows").map(_.value).getOrElse(0L)
}

/** Outcome of one capped operation. */
sealed trait Outcome
final case class Done(ms: Double) extends Outcome
final case class Failed(ms: Double, why: String) extends Outcome

/** The Spark side of the benchmark: the session, the timed sink, the
  * per-operation cap and the engine counters.
  */
final class Engine(val spark: SparkSession, capSeconds: Double) {
  private val sc = spark.sparkContext
  val counters = new EngineCounters
  val lastExecution = new LastExecution
  sc.addSparkListener(counters)
  spark.listenerManager.register(lastExecution)

  private val timer = Executors.newSingleThreadScheduledExecutor(new ThreadFactory {
    def newThread(r: Runnable): Thread = {
      val t = new Thread(r, "perfbench-cap"); t.setDaemon(true); t
    }
  })
  private var opSeq = 0L

  /** Consumes every output column: Spark cannot prune any of the work. */
  def sink(df: DataFrame): Unit = df.write.format("noop").mode("overwrite").save()

  /** Runs `body` under the cap. Spark jobs it starts are cancelled when
    * the cap passes; any operation that ends past the cap, or throws,
    * fails.
    */
  def capped(label: String)(body: => Unit): Outcome = {
    opSeq += 1
    val group = s"perfbench-$opSeq"
    val capMs = capSeconds * 1000
    @volatile var fired = false
    sc.setJobGroup(group, label, interruptOnCancel = true)
    val alarm = timer.schedule(new Runnable {
      def run(): Unit = { fired = true; sc.cancelJobGroup(group) }
    }, (capMs * 1000).toLong, TimeUnit.MICROSECONDS)
    val t0 = System.nanoTime()
    def ms = (System.nanoTime() - t0) / 1e6
    try {
      body
      val t = ms
      if (t > capMs) Failed(t, f"$label: took $t%.0f ms, over the cap") else Done(t)
    } catch {
      case NonFatal(e) =>
        val t = ms
        if (fired) Failed(t, f"$label: cancelled at the cap after $t%.0f ms")
        else Failed(t, s"$label: ${e.getClass.getSimpleName}: ${e.getMessage}".take(400))
    } finally {
      alarm.cancel(false)
      sc.clearJobGroup()
    }
  }

  /** Blocks until every posted listener event has been delivered. */
  def drain(): Unit = ListenerBusAccess.drain(sc)

  /** Bytes held by cached RDDs outside `baseline` (in memory or on disk). */
  def cachedBytesExcept(baseline: Set[Int]): Long =
    sc.getRDDStorageInfo.filterNot(i => baseline(i.id)).map(i => i.memSize + i.diskSize).sum

  def cachedRddIds: Set[Int] = sc.getRDDStorageInfo.map(_.id).toSet

  def close(): Unit = timer.shutdownNow()
}
