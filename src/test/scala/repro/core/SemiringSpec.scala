package repro.core

import org.apache.spark.sql.CatalystAccess.{column, expression}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.Literal
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.SparkSpec

/** Semiring algebra evaluated through Spark columns. */
class SemiringSpec extends SparkSpec {

  import spark.implicits._

  private val vals = Seq(3.0, 1.0, 2.0).toDF("v")

  private def foldOne(s: Semiring) =
    vals.agg(s.plus(col("v"))).collect()(0).get(0)

  test("SumProduct folds with +") { assert(foldOne(Semiring.SumProduct) == 6.0) }
  test("MinSum folds with min") { assert(foldOne(Semiring.MinSum) == 1.0) }
  test("MaxSum folds with max") { assert(foldOne(Semiring.MaxSum) == 3.0) }
  test("MaxProduct folds with max") { assert(foldOne(Semiring.MaxProduct) == 3.0) }

  test("CountProduct folds counts with + and finishes null to 0") {
    val s = Semiring.CountProduct
    def total(df: DataFrame): Long =
      df.agg(column(s.finishExpr(expression(s.plus(col("v")))))).collect()(0).getLong(0)
    assert(total(Seq(2L, 3L).toDF("v")) == 5L)
    assert(total(Seq.empty[Long].toDF("v")) == 0L)
  }

  /** `s`'s ⊗ of the columns `a` and `b` of one row `(2.0, 3.0)`. */
  private def timesOf(s: Semiring): Double =
    Seq((2.0, 3.0)).toDF("a", "b")
      .select(column(s.timesExpr.get(expression(col("a")), expression(col("b")))))
      .collect()(0).getDouble(0)

  test("times of SumProduct multiplies") { assert(timesOf(Semiring.SumProduct) == 6.0) }

  test("times of MinSum adds (shifted-identity composition)") {
    assert(timesOf(Semiring.MinSum) == 5.0)
  }

  test("string semirings are single-source (no ⊗)") {
    assert(Semiring.MinString.timesExpr.isEmpty)
    assert(Semiring.MaxString.timesExpr.isEmpty)
  }

  test("countFold is defined exactly for the sum-like semirings") {
    def folds(s: Semiring) = s.countFold(Literal(3L), LongType)
    assert(folds(Semiring.SumProduct).isDefined)
    assert(folds(Semiring.CountProduct).isDefined)
    assert(folds(Semiring.MinSum).isEmpty)
    assert(folds(Semiring.MaxSum).isEmpty)
    assert(folds(Semiring.MinString).isEmpty)
  }

  test("idempotence flags split sum-like from min/max semirings") {
    assert(!Semiring.SumProduct.idempotent && !Semiring.CountProduct.idempotent)
    assert(Semiring.MinSum.idempotent && Semiring.MaxSum.idempotent &&
      Semiring.MinString.idempotent && Semiring.MaxProduct.idempotent)
  }

  test("identity literals exist where the ablation needs them") {
    assert(Semiring.SumProduct.one.isDefined && Semiring.CountProduct.one.isDefined)
    assert(Semiring.MinString.one.isEmpty)
  }

  test("MinString folds lexicographically") {
    val got = Seq("b", "a", "c").toDF("v")
      .agg(Semiring.MinString.plus(col("v"))).collect()(0).getString(0)
    assert(got == "a")
  }
}
