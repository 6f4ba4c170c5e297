package repro

import org.apache.spark.sql.DataFrame
import repro.core.CQ
import repro.duck.DuckRunner

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, cq, inst)`` loads ``inst`` into an
  * in-process DuckDB as typed tables ([[DuckRunner.loadInstances]]), runs
  * the query's flat SQL there and asserts that its rows equal
  * ``sparkDf``'s as a multiset. This catches wrong results from a
  * rewritten plan or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  /** A result as the oracle compares it: each canonical row (cells
    * rendered by [[DuckRunner.cell]], in the order of the lower-cased
    * column names) with its number of occurrences.
    */
  def canon(result: (Seq[String], Seq[Seq[String]])): Map[Seq[String], Int] = {
    val (cols, rows) = result
    val idx = cols.map(_.toLowerCase).zipWithIndex.sortBy(_._1).map(_._2)
    rows.groupMapReduce(r => idx.map(r))(_ => 1)(_ + _)
  }

  /** A Spark result as the oracle compares it. */
  def canon(df: DataFrame): Map[Seq[String], Int] =
    canon((df.columns.toSeq, df.collect().toSeq.map(_.toSeq.map(DuckRunner.cell))))

  def assertEquivalent(sparkDf: DataFrame, cq: CQ, inst: CQ.Instances): Unit = {
    val duck = new DuckRunner
    val (dCols, dRows) =
      try { duck.loadInstances(inst); duck.fetch(cq.flatSql(duck = true)) }
      finally duck.close()
    val sCols = sparkDf.columns.toSeq
    require(
      dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
      s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
    )
    val got = canon(sparkDf)
    val exp = canon((dCols, dRows))
    // rows that one side holds more often than the other, with that count
    def surplus(a: Map[Seq[String], Int], b: Map[Seq[String], Int]) =
      a.collect { case (r, n) if n > b.getOrElse(r, 0) => s"$r ×${n - b.getOrElse(r, 0)}" }.take(3)
    require(got == exp,
      s"result mismatch (${got.values.sum} vs ${exp.values.sum} rows):\n" +
      s"  first spark surplus: ${surplus(got, exp)}\n" +
      s"  first duck surplus:  ${surplus(exp, got)}"
    )
  }
}
