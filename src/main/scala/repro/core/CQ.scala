package repro.core

import org.apache.spark.sql.DataFrame

/** One relation occurrence in a conjunctive query.
  *
  * @param id    unique within the query (self-joins are distinct atoms over
  *              the same DataFrame — "logical copies", paper §2.1)
  * @param attrs logical attribute names; attributes shared between atoms
  *              are natural-join attributes. The bound DataFrame must have
  *              exactly these column names (selections are pre-applied —
  *              paper §2.1 pushes σ to the inputs).
  */
final case class Atom(id: String, attrs: Vector[String]) {
  require(attrs.distinct == attrs, s"atom $id has duplicate attrs: $attrs")
  val attrSet: Set[String] = attrs.toSet
}

/** One aggregate of the query's SELECT list, with its semiring.
  *
  * @param alias     output column name
  * @param semiring  the `(S, ⊕, ⊗)` driving this annotation column
  * @param perAtom   annotation expression per source atom (a SQL expression
  *                  over that atom's attributes); atoms not listed carry the
  *                  identity annotation. COUNT(*) is the empty map under
  *                  [[Semiring.CountProduct]].
  */
final case class AggSpec(
    alias: String,
    semiring: Semiring,
    perAtom: Map[String, String] = Map.empty,
) {
  require(semiring != Semiring.CountProduct || perAtom.isEmpty,
    s"$alias: CountProduct is COUNT(*) only — use SumProduct for SUM(expr)")

  /** Pure count aggregate — no source expressions at all. */
  def isCountStar: Boolean = perAtom.isEmpty && semiring == Semiring.CountProduct
}

/** A conjunctive query `π_O (R_1 ⋈ … ⋈ R_n)` with semiring aggregates
  * (paper Eq. 1). `output` is O; `aggs` are the annotation vector.
  *
  * Semantics by case:
  *  - `aggs` non-empty: `SELECT O, agg…  FROM … GROUP BY O` (group-by may
  *    be empty: a single global row, matching SQL).
  *  - `aggs` empty, `distinctOutput = true`: `SELECT DISTINCT O FROM …`
  *    (projection query, boolean semiring).
  *  - `aggs` empty, `distinctOutput = false`: full-enumeration query
  *    (`O` must be all attributes; no π is ever applied).
  */
final case class CQ(
    name: String,
    atoms: Vector[Atom],
    output: Vector[String],
    aggs: Vector[AggSpec] = Vector.empty,
    distinctOutput: Boolean = true,
) {
  require(atoms.map(_.id).distinct.size == atoms.size, s"$name: duplicate atom ids")

  val attrSet: Set[String] = atoms.flatMap(_.attrs).toSet
  val outputSet: Set[String] = output.toSet
  require(outputSet.subsetOf(attrSet), s"$name: output $output not all in $attrSet")
  require(aggs.flatMap(_.perAtom.keys).forall(id => atoms.exists(_.id == id)),
    s"$name: agg references unknown atom")
  require(aggs.isEmpty || distinctOutput, s"$name: aggregated query is always grouped")
  if (!distinctOutput)
    require(outputSet == attrSet, s"$name: full-enumeration query must output all attrs")

  def atom(id: String): Atom = atoms.find(_.id == id).getOrElse(
    throw new NoSuchElementException(s"$name: no atom $id"))

  /** Atoms whose schema contains attribute `x`. */
  def atomsWith(x: String): Vector[Atom] = atoms.filter(_.attrSet(x))

  /** Attributes shared by at least two atoms (the join attributes). */
  def joinAttrs: Set[String] = attrSet.filter(x => atomsWith(x).size >= 2)

  /** Ā_i — attributes appearing in some atom other than `id` (paper §2.1). */
  def attrsElsewhere(id: String): Set[String] =
    atoms.filter(_.id != id).flatMap(_.attrs).toSet

  /** Annotation indices whose ⊕ is not idempotent (need multiplicities). */
  def sumLikeAnnots: Set[Int] =
    aggs.zipWithIndex.collect { case (a, i) if !a.semiring.idempotent => i }.toSet

  /** Annotation indices materialized at the scan of `atomId`. */
  def scanAnnots(atomId: String): Set[Int] =
    aggs.zipWithIndex.collect { case (a, i) if a.perAtom.contains(atomId) => i }.toSet

  // ---------------------------------------------------------------- SQL --

  /** Qualify each attribute token of `expr` with `alias.` and, when
    * `castTo` is given, cast it.
    */
  private def qualify(expr: String, alias: String, attrs: Set[String],
                      castTo: Option[String]): String = {
    val token = "[A-Za-z_][A-Za-z0-9_]*".r
    token.replaceAllIn(expr, m => {
      val t = m.matched
      if (attrs(t)) castTo match {
        case Some(tp) => s"CAST($alias.$t AS $tp)"
        case None     => s"$alias.$t"
      } else t
    })
  }

  private def aggSql(a: AggSpec): String = {
    if (a.isCountStar) return s"COUNT(*) AS ${a.alias}"
    // Numeric aggregates are cast to DOUBLE so the engine-native result
    // and the rewritten result (annotations are typed by the semiring)
    // agree exactly.
    val cast =
      if (a.semiring.dataType != org.apache.spark.sql.types.StringType)
        Some("DOUBLE")
      else None
    val terms = atoms.collect {
      case at if a.perAtom.contains(at.id) =>
        s"(${qualify(a.perAtom(at.id), at.id, at.attrSet, cast)})"
    }
    val body = terms.reduce(_ + s" ${a.semiring.timesSql} " + _)
    s"${a.semiring.plusSql}($body) AS ${a.alias}"
  }

  /** The query as a single flat SQL statement over per-atom tables/views
    * named by atom id — the *native* plan handed to the engine's own
    * optimizer, and the oracle query for DuckDB. The text is the same for
    * both engines; `duck` changes nothing and stays only because
    * `perfbench` passes it.
    */
  def flatSql(duck: Boolean): String = {
    val from = atoms.map(a => s"${a.id}").mkString(", ")
    val conds = attrSet.toVector.sorted.flatMap { x =>
      val as = atomsWith(x)
      as.drop(1).map(o => s"${as.head.id}.$x = ${o.id}.$x")
    }
    val where = if (conds.isEmpty) "" else conds.mkString(" WHERE ", " AND ", "")
    val outCols = output.map(x => s"${atomsWith(x).head.id}.$x AS $x")
    if (aggs.nonEmpty) {
      val sel = (outCols ++ aggs.map(aggSql)).mkString(", ")
      val grp =
        if (output.isEmpty) ""
        else output.map(x => s"${atomsWith(x).head.id}.$x").mkString(" GROUP BY ", ", ", "")
      s"SELECT $sel FROM $from$where$grp"
    } else if (distinctOutput) {
      s"SELECT DISTINCT ${outCols.mkString(", ")} FROM $from$where"
    } else {
      s"SELECT ${outCols.mkString(", ")} FROM $from$where"
    }
  }

  /** Native SparkSQL text (run over temp views named by atom id). */
  def sparkSql: String = flatSql(duck = false)
}

object CQ {
  /** Instance binding: per-atom DataFrames whose columns are exactly the
    * atom's logical attributes (σ already applied, columns renamed).
    */
  type Instances = Map[String, DataFrame]

  def validateInstances(cq: CQ, inst: Instances): Unit =
    cq.atoms.foreach { a =>
      val df = inst.getOrElse(a.id, throw new IllegalArgumentException(
        s"${cq.name}: no instance for atom ${a.id}"))
      require(df.columns.toSet == a.attrSet,
        s"${cq.name}/${a.id}: columns ${df.columns.toSeq} != attrs ${a.attrs}")
    }
}
