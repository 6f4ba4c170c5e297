package repro.opt

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._

/** Cycle elimination by attribute renaming (paper §5.1, Example 5.2):
  * rename one occurrence of a join attribute `x` to a fresh `x'` so the
  * hypergraph becomes acyclic, evaluate the renamed query grouped by
  * `O ∪ {x, x'}`, then reinstate the equality with a selection
  * `σ_{x = x'}` followed by a re-aggregation down to `O` (valid because ⊕
  * is associative). With PK–FK joins this keeps the run linear — exactly
  * the TPC-H Q5 pattern.
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
            val reaggs = cq.aggs.map(a => a.semiring.plus(col(a.alias)).as(a.alias))
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

/** Fusion of dimension relations (paper §5.1): pre-join (or Cartesian-
  * product) small relations attached to the same large relation, saving a
  * join or semi-join against the large one.
  */
object DimensionFusion {

  /** Fuse attribute-disjoint small atoms sharing a common neighbor.
    * Returns the rewritten query, rebound instances, and a RuleConfig
    * with keys/integrity facts remapped to the fused atoms.
    */
  def apply(cq: CQ, inst: CQ.Instances, cfg: RuleConfig = RuleConfig.default,
            maxRows: Long = 10000): (CQ, CQ.Instances, RuleConfig) = {
    val sizes = cq.atoms.map(a => a.id -> inst(a.id).count()).toMap
    var cur = cq; var curInst = inst; var curCfg = cfg
    var done = false
    while (!done) {
      val pair = (for {
        a <- cur.atoms; b <- cur.atoms
        if a.id < b.id
        if (a.attrSet & b.attrSet).isEmpty
        if sizes.getOrElse(a.id, Long.MaxValue) <= maxRows &&
          sizes.getOrElse(b.id, Long.MaxValue) <= maxRows
        c <- cur.atoms
        if c.id != a.id && c.id != b.id
        if (c.attrSet & a.attrSet).nonEmpty && (c.attrSet & b.attrSet).nonEmpty
      } yield (a, b)).headOption
      pair match {
        case None => done = true
        case Some((a, b)) =>
          val fusedId = s"${a.id}__${b.id}"
          val fused = Atom(fusedId, a.attrs ++ b.attrs)
          val atoms2 = cur.atoms.filterNot(x => x.id == a.id || x.id == b.id) :+ fused
          val aggs2 = cur.aggs.map { ag =>
            val ea = ag.perAtom.get(a.id); val eb = ag.perAtom.get(b.id)
            val rest = ag.perAtom -- Set(a.id, b.id)
            val fusedExpr = (ea, eb) match {
              case (Some(x), Some(y)) => Some(s"($x) ${ag.semiring.timesSql} ($y)")
              case (Some(x), None)    => Some(x)
              case (None, Some(y))    => Some(y)
              case _                  => None
            }
            ag.copy(perAtom = rest ++ fusedExpr.map(fusedId -> _))
          }
          cur = CQ(cur.name, atoms2, cur.output, aggs2, cur.distinctOutput)
          curInst = (curInst -- Set(a.id, b.id)) +
            (fusedId -> curInst(a.id).crossJoin(curInst(b.id)))
          val fusedKeys = for {
            ka <- curCfg.keysOf(a.id); kb <- curCfg.keysOf(b.id)
          } yield ka ++ kb
          curCfg = curCfg.copy(
            uniqueKeys = (curCfg.uniqueKeys -- Set(a.id, b.id)) + (fusedId -> fusedKeys),
            refIntegrity = curCfg.refIntegrity.collect {
              case (x, y) if x != a.id && x != b.id && y != a.id && y != b.id => (x, y)
            })
      }
    }
    (cur, curInst, curCfg)
  }
}
