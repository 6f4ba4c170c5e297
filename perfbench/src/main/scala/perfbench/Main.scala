package perfbench

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  * `perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`
  * `--build-dir <dir>` (spans and Spark's scratch files go there).
  *
  * Prints every metric by name and unit, then, as its last line, one JSON
  * object with `correct`, `attempted`, `failed` and `metrics` (end-to-end
  * metrics untraced, per-layer metrics traced).
  */
object Main {

  /** An operation still running after this long is cancelled and fails. */
  val CapSeconds = 20.0

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        buildDir: String)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(get("workload"), get("seed").toLong, get("seconds").toDouble,
      get("trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      },
      get("build-dir"))
  }

  /** The settings of the program's own jobs: local[*], 64 shuffle
    * partitions, broadcast joins off. The default parallelism is pinned
    * at 4, because the generators' `rand(seed)` draws per partition: a
    * seed then gives the same inputs on any number of cores.
    */
  def session(buildDir: String): SparkSession = {
    val spark = SparkSession.builder
      .master("local[*]")
      .config("spark.default.parallelism", 4)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(buildDir, "spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", Paths.get(buildDir, "warehouse").toAbsolutePath.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }

  private def json(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not a number")
    java.lang.Double.toString(v)
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    require(Workloads.names.contains(a.workload),
      s"unknown workload ${a.workload} (known: ${Workloads.names.mkString(", ")})")
    val spark = session(a.buildDir)
    val engine = new Engine(spark, CapSeconds)
    val driver = new Driver(engine, a.workload, a.seed, a.seconds, new Tracer(a.trace))
    val metrics =
      try {
        driver.run()
        driver.failures.foreach(f => System.err.println(s"FAILED $f"))
        val t0 = System.nanoTime()
        val ms = if (a.trace) driver.perLayer else driver.endToEnd
        driver.phases += "derive" -> (System.nanoTime() - t0) / 1e9
        driver.close()
        ms
      } finally { engine.close(); spark.stop() }

    val out = System.out
    out.println(s"workload ${a.workload}, seed ${a.seed}, trace ${if (a.trace) 1 else 0}: " +
      s"${driver.queries.size} queries (${driver.queries.map(_.name).mkString(" ")}), " +
      f"${driver.passes}%.1f passes in ${driver.measuredSeconds}%.1f s; phases: " +
      driver.phases.map { case (n, t) => f"$n $t%.1f s" }.mkString(", "))
    metrics.foreach(m => out.println(f"  ${m.name}%-28s ${m.value}%14.4f ${m.unit}%-6s ${m.note}"))
    val failedFrac = driver.failures.size.toDouble / math.max(1L, driver.attempted)
    out.println(f"  ${"failed_frac"}%-28s ${failedFrac}%14.4f ratio  " +
      s"${driver.failures.size} of ${driver.attempted} operations")
    driver.failures.foreach(f => out.println(s"  FAILED $f"))
    System.err.println(driver.perQueryTable.mkString("per-query medians (ms):\n", "\n", ""))
    val samplesPath = Paths.get(a.buildDir, "samples",
      s"${a.workload}-seed${a.seed}-trace${if (a.trace) 1 else 0}.tsv")
    Files.createDirectories(samplesPath.getParent)
    Files.write(samplesPath, driver.samples.map(s => s"${s.query}\t${s.op}\t${s.ms}")
      .mkString("query\top\tms\n", "\n", "\n").getBytes("UTF-8"))
    if (a.trace) {
      val path = Paths.get(a.buildDir, "spans", s"${a.workload}-seed${a.seed}.jsonl")
      Tracer.write(driver.tracer.spans, path)
      out.println(s"  spans: ${driver.tracer.spans.size} written to $path")
    }
    // Errors and timeouts are failures; a wrong result also makes the run
    // incorrect.
    val correct = driver.wrongResults == 0
    val body = metrics.map(m => s""""${m.name}": {"value": ${json(m.value)}, "unit": "${m.unit}"}""")
    out.println(s"""{"correct": $correct, "attempted": ${driver.attempted}, """ +
      s""""failed": ${driver.failures.size}, "metrics": {${body.mkString(", ")}}}""")
    out.flush()
  }
}
