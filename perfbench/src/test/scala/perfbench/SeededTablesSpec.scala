package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.workloads.TpchLite

class SeededTablesSpec extends AnyFunSuite {

  private lazy val spark = SparkSession.builder.master("local[2]")
    .appName("perfbench-test").config("spark.sql.shuffle.partitions", 4).getOrCreate()

  private def sums(t: TpchLite.Tables) =
    t.productIterator.map { case df: org.apache.spark.sql.DataFrame => Checksum.ofDataFrame(df) }.toVector

  test("seed 0 reproduces TpchLite.tables exactly; another seed does not") {
    val sf = 0.002
    val reference = sums(TpchLite.tables(spark, sf))
    assert(sums(Workloads.tpchTables(spark, sf, seed = 0)) == reference)
    val other = sums(Workloads.tpchTables(spark, sf, seed = 1))
    assert(other(0) != reference(0)) // lineitem
    assert(other(5) == reference(5)) // nation has no seed
  }
}
