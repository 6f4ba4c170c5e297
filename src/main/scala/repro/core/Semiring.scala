package repro.core

import org.apache.spark.sql.CatalystAccess.{column, expression}
import org.apache.spark.sql.Column
import org.apache.spark.sql.catalyst.expressions.{Add, BinaryOperator, Cast, Coalesce, Expression, Literal, Multiply}
import org.apache.spark.sql.catalyst.expressions.aggregate.{AggregateFunction, Max, Min, Sum}
import org.apache.spark.sql.types.{DataType, DoubleType, LongType, StringType}

/** A commutative semiring `(S, ⊕, ⊗)` driving one annotation column.
  *
  * Following the FAQ/AJAR formulation (paper §2.1), every tuple carries an
  * annotation; joins combine annotations with `⊗` and aggregating
  * projections fold them with `⊕`. A query carries a *vector* of
  * annotations — one per aggregate in its SELECT list — each with its own
  * semiring; the join structure is shared while the annotation algebra is
  * applied per column (sound because distributivity holds per semiring).
  *
  * Annotation pruning (paper §5.1 "Pruning for Annotation") falls out of
  * this design: an annotation column is *absent* until its source atom (or
  * an aggregation that forces a count) materializes it, so relations whose
  * annotation would be the identity never pay for the extra column.
  *
  * Each semiring defines its algebra once, in Catalyst terms; every other
  * spelling (DataFrame columns, SQL text) is derived from it.
  *
  * @param dataType   Spark type of the annotation column
  * @param plusAgg    `⊕` as a Catalyst aggregate function over an annotation
  * @param timesExpr  `⊗` combining two present annotations; None means the
  *                   annotation is single-source (only ever present on one
  *                   join side), in which case the present side passes
  *                   through
  * @param one        the ⊗-identity `1`, when expressible — used by the
  *                   annotation-pruning ablation (pruning off materializes
  *                   identity annotations eagerly, as a naive rewriter would)
  * @param idempotent `⊕(x, x) = x`? Idempotent semirings tolerate duplicate
  *                   join paths.
  */
sealed abstract class Semiring(
    val dataType: DataType,
    val plusAgg: Expression => AggregateFunction,
    val timesExpr: Option[(Expression, Expression) => Expression],
    val one: Option[Literal],
    val idempotent: Boolean) {

  /** Final-result fixup for SQL parity (e.g. COUNT over an empty join is
    * 0 in SQL while SUM is NULL).
    */
  def finishExpr(e: Expression): Expression = e

  /** `⊕` folded over `cnt` copies of the identity `1`: for sum-like
    * semirings this is the group count cast to the annotation type
    * (annotation pruning materializes the count lazily); for idempotent
    * semirings the annotation stays absent (None) because `1 ⊕ 1 = 1`.
    */
  final def countFold(cnt: Expression, dt: DataType): Option[Expression] =
    if (idempotent) None else Some(Cast(cnt, dt))

  /** `⊕` as a Spark aggregate column. */
  final def plus(c: Column): Column = column(plusAgg(expression(c)).toAggregateExpression())

  private def probe: Expression = Literal.create(null, dataType)

  /** ⊕ spelled in SQL, for native-plan and oracle generation. */
  final def plusSql: String = plusAgg(probe).prettyName.toUpperCase(java.util.Locale.ROOT)

  /** ⊗ spelled as an infix SQL operator. Single-source semirings never
    * combine two terms; `||` only fills the separator slot there.
    */
  final def timesSql: String = timesExpr.map(_(probe, probe)) match {
    case Some(op: BinaryOperator) => op.symbol
    case _                        => "||"
  }

  /** `1` spelled in SQL (not `Literal.sql`, whose `1L` DuckDB misreads). */
  final def oneSql: Option[String] = one.map(_.value.toString)

  /** [[countFold]] spelled in SQL over the count expression `cnt`. */
  final def countFoldSql(cnt: String): Option[String] =
    if (idempotent) None else Some(s"CAST($cnt AS ${dataType.sql})")
}

object Semiring {

  /** `(R, +, ×)` — SUM of products; the workhorse for SUM aggregates. */
  case object SumProduct
    extends Semiring(DoubleType, Sum(_), Some(Multiply(_, _)), Some(Literal(1.0)), idempotent = false)

  /** `(N, +, ×)` over longs — COUNT(*) is SUM of all-ones annotations. */
  case object CountProduct
    extends Semiring(LongType, Sum(_), Some(Multiply(_, _)), Some(Literal(1L)), idempotent = false) {
    override def finishExpr(e: Expression): Expression = Coalesce(Seq(e, Literal(0L)))
  }

  /** `(R ∪ {∞}, min, +)` — MIN of a value sourced from one or more atoms
    * (identity 0 elsewhere); supports e.g. MIN(a + b).
    */
  case object MinSum
    extends Semiring(DoubleType, Min(_), Some(Add(_, _)), Some(Literal(0.0)), idempotent = true)

  /** `(R ∪ {-∞}, max, +)` — MAX(a + b) style aggregates (paper Ex. 2.1
    * variant MAX(ps_availqty - l_quantity)).
    */
  case object MaxSum
    extends Semiring(DoubleType, Max(_), Some(Add(_, _)), Some(Literal(0.0)), idempotent = true)

  /** `(R, max, ×)` over non-negative values — MAX(a × b) (paper Ex. 5.4). */
  case object MaxProduct
    extends Semiring(DoubleType, Max(_), Some(Multiply(_, _)), Some(Literal(1.0)), idempotent = true)

  /** MIN over strings, single-source (JOB-style MIN(t.title)). `⊗` is
    * undefined because the annotation only ever lives on one join side.
    */
  case object MinString extends Semiring(StringType, Min(_), None, None, idempotent = true)

  /** MAX over strings, single-source. */
  case object MaxString extends Semiring(StringType, Max(_), None, None, idempotent = true)
}
