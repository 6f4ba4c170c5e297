package repro.opt

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._

/** Cycle elimination by attribute renaming (paper §5.1, Example 5.2):
  * rename one occurrence of a join attribute `x` to a fresh `x'` so the
  * hypergraph becomes acyclic, evaluate the renamed query grouped by
  * `O ∪ {x, x'}`, then reinstate the equality with a selection
  * `σ_{x = x'}` followed by a re-aggregation down to `O` (valid because ⊕
  * is associative), finished as the query's own result is. With PK–FK
  * joins this keeps the run linear — exactly the TPC-H Q5 pattern.
  */
object CycleElimination {

  /** @param cq        the rewritten (acyclic) query
    * @param renamed   (atomId, oldAttr, newAttr)
    * @param finish    applies `σ_{x=x'}` + re-aggregation to the result
    *                  of the rewritten query
    */
  final case class Result(cq: CQ, renamed: (String, String, String),
                          finish: DataFrame => DataFrame) {
    /** Rebind instances: the renamed atom's column gets the fresh name. Its
      * statistics are its source's with the NDV of `from` under `to`.
      */
    def rebind(inst: CQ.Instances): CQ.Instances = {
      val (atom, from, to) = renamed
      inst.map { case (id, df) =>
        id -> (if (id != atom) df else Stats.derive(df.withColumnRenamed(from, to)) {
          val s = Stats.of(df, df.columns.toSeq)
          s.copy(ndv = s.ndv.map { case (x, n) => (if (x == from) to else x) -> n })
        })
      }
    }
  }

  /** Try to break one cycle; None if `cq` is already acyclic or no single
    * rename acyclifies it.
    */
  def apply(cq: CQ): Option[Result] = {
    if (Hypergraph.isAcyclic(cq)) return None
    val candidates = for {
      a <- cq.atoms
      x <- a.attrs if cq.atomsWith(x).size >= 2
    } yield (a.id, x)
    candidates.iterator.flatMap { case (atomId, x) =>
      val fresh = s"${x}__r"
      val atoms2 = cq.atoms.map { a =>
        if (a.id == atomId) a.copy(attrs = a.attrs.map(v => if (v == x) fresh else v))
        else a
      }
      if (!Hypergraph.isAcyclic(atoms2)) None
      else {
        val aggs2 = cq.aggs.map { ag =>
          ag.copy(perAtom = ag.perAtom.map { case (id, e) =>
            id -> (if (id == atomId) renameTokens(e, x, fresh) else e)
          })
        }
        val out2 = (cq.output ++ Vector(x, fresh).filterNot(cq.output.contains)).distinct
        val cq2 = CQ(s"${cq.name}_acyc", atoms2, out2, aggs2, cq.distinctOutput)
        val fin: DataFrame => DataFrame = { df =>
          val filtered = df.filter(col(x) === col(fresh))
          if (cq.aggs.nonEmpty) {
            val reaggs = cq.aggs.map(a =>
              a.semiring.finish(a.semiring.plus(col(a.alias))).as(a.alias))
            filtered.groupBy(cq.output.map(col): _*).agg(reaggs.head, reaggs.tail: _*)
              .select(cq.output.map(col) ++ cq.aggs.map(a => col(a.alias)): _*)
          } else if (cq.distinctOutput) {
            filtered.select(cq.output.map(col): _*).distinct()
          } else {
            filtered.select(cq.output.map(col): _*)
          }
        }
        Some(Result(cq2, (atomId, x, fresh), fin))
      }
    }.nextOption()
  }

  private def renameTokens(expr: String, from: String, to: String): String =
    ("\\b" + java.util.regex.Pattern.quote(from) + "\\b").r
      .replaceAllIn(expr, to)
}
