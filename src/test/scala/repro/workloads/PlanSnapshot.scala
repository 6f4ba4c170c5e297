package repro.workloads

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.SparkSession
import repro.core.Hypergraph
import repro.opt.CycleElimination

/** The checked-in plan snapshot: `Plan.render` of the Classic and Plus
  * plans of every workload query that is acyclic or made acyclic by cycle
  * elimination, each planned by `Runner.plan(w, m, optimize = false)` —
  * the default join tree, so no plan reads statistics, data or the core
  * count. Queries that take the GHD path are left out: their
  * decomposition reads collected statistics.
  *
  * Regenerate the file after a deliberate plan change with
  * `sbt "Test/runMain repro.workloads.PlanSnapshot"` and review its diff.
  */
object PlanSnapshot {

  val file: Path = Paths.get("src/test/resources/plans.txt")

  /** Every workload query, named `<workload>/<query>`. */
  private def workloads(spark: SparkSession): Vector[(String, Workload)] = {
    val t = TpchLite.tables(spark, sf = 0.002)
    Vector("q9" -> TpchLite.q9(t), "q9-3copy" -> TpchLite.q9(TpchLite.withCopies(t, 3), pk = false),
      "q3" -> TpchLite.q3(t), "q10" -> TpchLite.q10(t), "q19" -> TpchLite.q19(t),
      "q5" -> TpchLite.q5(t)).map { case (n, w) => s"tpch/$n" -> w } ++
      Sgpb.queries.map(q => s"sgpb/${q.name}" -> Sgpb.workload(spark, q.name, 1500, 300)) ++
      LsqbLite.workloads(LsqbLite.tables(spark, sf = 0.05)).toVector.sortBy(_._1)
        .map { case (n, w) => s"lsqb/$n" -> w } ++
      JobLite.workloads(JobLite.tables(spark, mult = 0.1, dims = 0.1))
        .map { case (n, w) => s"job/$n" -> w }
  }

  /** Does `Runner.acyclify` take a path that reads no statistics? */
  private def statisticsFree(w: Workload): Boolean =
    Hypergraph.isAcyclic(w.cq) ||
      w.cfg.uniqueKeys.nonEmpty && CycleElimination(w.cq).isDefined

  def render(spark: SparkSession): String =
    (for {
      (name, w) <- workloads(spark) if statisticsFree(w)
      m <- Seq(Runner.Classic, Runner.Plus)
    } yield s"== $name ${m.label}\n${Runner.plan(w, m, optimize = false)._1.render}\n").mkString

  def main(args: Array[String]): Unit = {
    val spark = repro.SparkSpec.shared
    try Files.write(file, render(spark).getBytes(UTF_8))
    finally spark.stop()
    println(s"wrote $file")
  }
}
