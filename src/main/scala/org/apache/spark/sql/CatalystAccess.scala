package org.apache.spark.sql

import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

/** Moves between the DataFrame API and Catalyst: wrapping a logical plan
  * as a DataFrame and converting columns to and from expressions. These
  * entry points are package-private to Spark, hence this package.
  */
object CatalystAccess {
  def ofRows(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)

  def column(e: Expression): Column = classic.ExpressionUtils.column(e)

  def expression(c: Column): Expression = classic.ExpressionUtils.expression(c)
}
