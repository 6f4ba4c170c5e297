package repro.core

/** Converts a [[Plan]] into one SQL query — the paper's rewrite-based
  * deployment (§6): "the instructions are further converted into
  * executable SQL queries". Each operator is a plain (not `MATERIALIZED`)
  * common table expression `<q>_op<i>`, defined once and read by name by
  * its parents, and the final query reads the root's. DuckDB inlines such
  * CTEs, as Spark does when they are deterministic, so a shared operator is
  * computed once per parent. The text is the same for SparkSQL and DuckDB.
  */
object SqlGen {

  /** The rewritten query.
    *
    * @param finalQuery the one statement: `WITH <q>_op0 AS (…), … SELECT …`
    */
  final case class Script(finalQuery: String) {

    /** Always empty: nothing runs before [[finalQuery]]. Kept, like
      * [[viewNames]] and [[DuckDialect]], only because perfbench still
      * executes these statements and drops these views; delete all three
      * with its next change.
      */
    def statements: Vector[String] = Vector.empty

    /** Always empty: the script creates no view, so perfbench drops none. */
    def viewNames: Vector[String] = Vector.empty
  }

  /** Ignored by [[script]]; kept only because perfbench passes it. */
  case object DuckDialect

  import Lower.v

  /** Emit the query. Base relations are expected as tables/views named by
    * atom id.
    */
  def script(plan: Plan, dialect: DuckDialect.type = DuckDialect): Script = {
    val cq = plan.cq
    val ops = plan.ops
    val nameOf: Map[Op, String] = ops.zipWithIndex.map {
      case (o, i) => (o: Op) -> s"${sanitize(cq.name)}_op$i"
    }.toMap

    /** Annotation `i` ⊕-folded over a group: with its ⊕ when present,
      * else (sum-like) as the group count.
      */
    def folded(i: Int, present: Boolean): String = {
      val s = cq.aggs(i).semiring
      if (present) s"${s.plusSql}(${v(i)})"
      else s.countFoldSql("COUNT(*)").getOrElse(throw new IllegalStateException(
        s"${cq.name}: annotation ${cq.aggs(i).alias} ($s) absent at the plan root"))
    }

    def sqlFor(op: Op): String = op match {
      case s: Scan =>
        val annots = s.annots.toVector.sorted.map { i =>
          val a = cq.aggs(i)
          val e = a.perAtom.getOrElse(s.atomId, a.semiring.oneSql.getOrElse(
            throw new IllegalStateException(s"no SQL identity for ${a.semiring}")))
          // Match the typed-executor annotation columns exactly.
          val typed = a.semiring.dataType match {
            case org.apache.spark.sql.types.StringType => s"($e)"
            case dt                                    => s"CAST(($e) AS ${dt.sql})"
          }
          s"$typed AS ${v(i)}"
        }
        s"SELECT ${(s.attrs ++ annots).mkString(", ")} FROM ${s.atomId}"

      case p: Project =>
        val child = nameOf(p.child)
        if (!p.dedupe) {
          val cols = p.keep ++ p.child.annots.toVector.sorted.map(v)
          s"SELECT ${cols.mkString(", ")} FROM $child"
        } else if (cq.aggs.isEmpty) {
          s"SELECT DISTINCT ${p.keep.mkString(", ")} FROM $child"
        } else {
          val annots = p.child.annots.toVector.sorted ++
            (cq.sumLikeAnnots -- p.child.annots).toVector.sorted
          val sel = (p.keep ++ annots.map(i =>
            s"${folded(i, p.child.annots(i))} AS ${v(i)}")).mkString(", ")
          val grp = if (p.keep.isEmpty) "" else s" GROUP BY ${p.keep.mkString(", ")}"
          s"SELECT $sel FROM $child$grp"
        }

      case j: Join =>
        val (l, r) = (nameOf(j.left), nameOf(j.right))
        val common = j.left.attrs.filter(j.right.attrSet)
        val cond =
          if (common.isEmpty) ""
          else common.map(x => s"l.$x = r.$x").mkString(" WHERE ", " AND ", "")
        val cols =
          j.left.attrs.map(x => s"l.$x AS $x") ++
            j.right.attrs.filterNot(j.left.attrSet).map(x => s"r.$x AS $x") ++
            (j.left.annots ++ j.right.annots).toVector.sorted.map { i =>
              val a = cq.aggs(i)
              (j.left.annots(i), j.right.annots(i)) match {
                case (true, true) =>
                  s"(l.${v(i)} ${a.semiring.timesSql} r.${v(i)}) AS ${v(i)}"
                case (true, false) => s"l.${v(i)} AS ${v(i)}"
                case _             => s"r.${v(i)} AS ${v(i)}"
              }
            }
        s"SELECT ${cols.mkString(", ")} FROM $l l, $r r$cond"

      case sj: SemiJoin =>
        val (l, r) = (nameOf(sj.left), nameOf(sj.right))
        val common = sj.left.attrs.filter(sj.right.attrSet)
        if (common.isEmpty)
          s"SELECT * FROM $l WHERE EXISTS (SELECT 1 FROM $r)"
        else if (common.size == 1)
          // Paper Table 1 spelling: WHERE key IN (SELECT DISTINCT key …).
          s"SELECT * FROM $l WHERE ${common.head} IN (SELECT DISTINCT ${common.head} FROM $r)"
        else {
          // A row-valued IN subquery is not portable (DuckDB rejects it).
          val cond = common.map(x => s"r.$x = l.$x").mkString(" AND ")
          s"SELECT * FROM $l l WHERE EXISTS (SELECT 1 FROM $r r WHERE $cond)"
        }
    }

    val rootName = nameOf(plan.root)
    val query =
      if (cq.aggs.nonEmpty) {
        val aggCols = cq.aggs.zipWithIndex.map { case (a, i) =>
          val present = plan.root.annots(i)
          val body = (present, a.semiring) match {
            case (true, Semiring.CountProduct) => s"CAST(COALESCE(SUM(${v(i)}), 0) AS BIGINT)"
            case _                             => folded(i, present)
          }
          s"$body AS ${a.alias}"
        }
        val sel = (cq.output ++ aggCols).mkString(", ")
        val grp = if (cq.output.isEmpty) "" else s" GROUP BY ${cq.output.mkString(", ")}"
        s"SELECT $sel FROM $rootName$grp"
      } else if (cq.distinctOutput) {
        s"SELECT DISTINCT ${cq.output.mkString(", ")} FROM $rootName"
      } else {
        s"SELECT ${cq.output.mkString(", ")} FROM $rootName"
      }

    Script(ops.map(o => s"${nameOf(o)} AS (${sqlFor(o)})")
      .mkString("WITH ", ", ", s" $query"))
  }

  private def sanitize(name: String): String =
    name.replaceAll("[^A-Za-z0-9_]", "_")
}
