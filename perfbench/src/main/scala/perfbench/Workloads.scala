package perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core.{Hypergraph, RuleConfig}
import repro.workloads.{TpchLite, Workload}

/** One benchmark query: its bound workload and whether the classic
  * Yannakakis method also runs on it.
  */
final case class Query(name: String, w: Workload, classic: Boolean) {
  /** DuckDB `plus` needs no Spark-materialized bag: the CQ is acyclic. */
  def duckPlus: Boolean = Hypergraph.isAcyclic(w.cq)
}

/** The workloads. All inputs derive from the run seed: seed 0 gives the
  * generators' own default seeds, and seed n shifts every generator seed
  * by `n * SeedStride`.
  *
  * Every Spark query costs about a second on a small machine whatever its
  * size, so each workload keeps the two queries that take the paths it is
  * there for, and the classic method, at several seconds a query, runs on
  * one query of each.
  */
object Workloads {

  val names: Vector[String] = Vector("tpch-m2m", "tpch-pkfk")

  val SeedStride = 1000L

  val TpchSf = 0.01

  def build(spark: SparkSession, name: String, seed: Long): Vector[Query] = name match {
    case "tpch-m2m"  => tpchM2m(spark, seed)
    case "tpch-pkfk" => tpchPkfk(spark, seed)
    case other => throw new IllegalArgumentException(
      s"unknown workload $other (known: ${names.mkString(", ")})")
  }

  /** `TpchLite.tables` with every generator seed shifted by the run seed;
    * repeats its three column fixes.
    */
  def tpchTables(spark: SparkSession, sf: Double, seed: Long): TpchLite.Tables = {
    val off = seed * SeedStride
    val nSupp = math.max(1L, (10000 * sf).toLong)
    TpchLite.Tables(
      SynthData.lineitem(spark, sf, seed = 0 + off)
        .withColumn("l_quantity", floor(col("l_quantity")).cast("double"))
        .withColumn("l_extendedprice", floor(col("l_extendedprice")).cast("double"))
        .withColumn("l_suppkey",
          (col("l_partkey") * 7 + col("l_orderkey")) % nSupp + 1),
      SynthData.orders(spark, sf, seed = 1 + off),
      SynthData.customer(spark, sf, seed = 2 + off)
        .withColumn("c_nationkey", col("c_nationkey").cast("long")),
      SynthData.part(spark, sf, seed = 5 + off),
      SynthData.supplier(spark, sf, seed = 6 + off),
      SynthData.nation(spark),
      SynthData.partsupp(spark, sf, seed = 7 + off))
  }

  /** q3: PK-FK line-3, free-connex; q5: cyclic, through cycle
    * elimination.
    */
  def tpchPkfk(spark: SparkSession, seed: Long): Vector[Query] = {
    val t = tpchTables(spark, TpchSf, seed)
    Vector(
      Query("q3", TpchLite.q3(t), classic = true),
      Query("q5", TpchLite.q5(t), classic = false))
  }

  /** The paper's 5-copy tables, where every primary key appears five
    * times, so the PK-FK joins become many-to-many and no key facts hold.
    * q9: acyclic, not free-connex; q5: cyclic without key facts, so it
    * goes through GHD.
    */
  def tpchM2m(spark: SparkSession, seed: Long): Vector[Query] = {
    val t = TpchLite.withCopies(tpchTables(spark, TpchSf, seed), 5)
    Vector(
      Query("q9-5copy", TpchLite.q9(t, pk = false), classic = true),
      Query("q5-5copy", TpchLite.q5(t).copy(cfg = RuleConfig.default), classic = false))
  }
}
