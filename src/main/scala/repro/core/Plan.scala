package repro.core

/** The DAG query plan produced by the rewriters — exactly the standard
  * relational operators of paper Table 1 (selections are pre-applied to
  * the scans, per §2.1):
  *
  *  - [[Scan]]      — an input relation (with its annotation columns)
  *  - [[Project]]   — `π_E` with ⊕-aggregation of annotations
  *                    (`dedupe = false` is pure column pruning, emitted by
  *                    the aggregation-elimination rule when E holds a key)
  *  - [[Join]]      — natural join, annotations combined with ⊗
  *  - [[SemiJoin]]  — `R ⋉ S`, annotations of the left retained
  *
  * Each operator tracks its logical attributes and which annotation
  * indices are materialized (absent annotations are the identity — the
  * paper's annotation pruning).
  */
sealed trait Op {
  def attrs: Vector[String]
  def annots: Set[Int]
  def children: Vector[Op]
  def attrSet: Set[String] = attrs.toSet
}

/** Leaf: one atom's (pre-filtered, renamed) input relation. */
final case class Scan(atomId: String, attrs: Vector[String], annots: Set[Int]) extends Op {
  def children: Vector[Op] = Vector.empty
}

/** `π_keep` — with `dedupe = true` this is a GROUP BY `keep` folding every
  * annotation with its ⊕ (and materializing absent sum-like annotations as
  * group counts); with `dedupe = false` it only prunes columns.
  */
final case class Project(child: Op, keep: Vector[String], dedupe: Boolean,
                         sumLike: Set[Int]) extends Op {
  require(keep.toSet.subsetOf(child.attrSet),
    s"project keeps $keep not in ${child.attrs}")
  val attrs: Vector[String] = keep
  val annots: Set[Int] = if (dedupe) child.annots ++ sumLike else child.annots
  def children: Vector[Op] = Vector(child)
}

/** Natural join on the shared attributes (cross join if none). */
final case class Join(left: Op, right: Op) extends Op {
  val attrs: Vector[String] = left.attrs ++ right.attrs.filterNot(left.attrSet)
  val annots: Set[Int] = left.annots ++ right.annots
  def children: Vector[Op] = Vector(left, right)
}

/** `left ⋉ right` on the shared attributes. */
final case class SemiJoin(left: Op, right: Op) extends Op {
  val attrs: Vector[String] = left.attrs
  val annots: Set[Int] = left.annots
  def children: Vector[Op] = Vector(left, right)
}

/** A complete plan: the root operator plus the query it computes. For an
  * aggregate or `DISTINCT` query the root is the result step, a
  * deduplicating `π⊕[O]` ([[Plan.result]]); a backend only finishes it,
  * naming the output columns and finishing each annotation.
  */
final case class Plan(cq: CQ, root: Op) {

  /** All distinct operators of the DAG (structural dedup). */
  lazy val ops: Vector[Op] = {
    val seen = collection.mutable.LinkedHashSet.empty[Op]
    def walk(o: Op): Unit = if (!seen(o)) { o.children.foreach(walk); seen += o }
    walk(root)
    seen.toVector
  }

  def count[T <: Op](pf: PartialFunction[Op, T]): Int = ops.count(pf.isDefinedAt)

  def nSemiJoins: Int = count { case s: SemiJoin => s }
  def nJoins: Int = count { case j: Join => j }
  def nAggProjects: Int = count { case p: Project if p.dedupe => p }

  /** Human-readable plan, one operator per line, bottom-up. */
  def render: String = {
    val idx = ops.zipWithIndex.toMap
    ops.map { o =>
      val lhs = f"%%3d".format(idx(o))
      val body = o match {
        case Scan(a, at, an)      => s"Scan($a)  attrs=${at.mkString(",")}  annots=$an"
        case p: Project           =>
          val kind = if (p.dedupe) "π⊕" else "π"
          s"$kind[${p.keep.mkString(",")}](#${idx(p.child)})"
        case j: Join              => s"⋈(#${idx(j.left)}, #${idx(j.right)}) → ${j.attrs.mkString(",")}"
        case s: SemiJoin          => s"⋉(#${idx(s.left)}, #${idx(s.right)})"
      }
      s"$lhs: $body"
    }.mkString("\n")
  }
}

object Plan {
  /** Scan for an atom, materializing the annotations it sources. With
    * annotation pruning off, identity annotations (where the semiring can
    * express `1`) are materialized eagerly too — the naive rewriter of
    * the Table 3 ablation.
    */
  def scan(cq: CQ, atomId: String, cfg: RuleConfig = RuleConfig.default): Scan = {
    val base = cq.scanAnnots(atomId)
    val eager =
      if (cfg.annotationPruning) Set.empty[Int]
      else cq.aggs.zipWithIndex.collect {
        case (a, i) if a.semiring.one.isDefined => i
      }.toSet
    Scan(atomId, cq.atom(atomId).attrs, base ++ eager)
  }

  /** `π_keep` with ⊕-aggregation (the Table-1 Projection operator).
    * Identity-width projections are skipped — duplicate folding there is
    * an optimization, never needed for correctness ([[result]] groups by
    * the output attributes).
    */
  def project(cq: CQ, child: Op, keep: Vector[String]): Op =
    if (keep == child.attrs) child
    else Project(child, keep, dedupe = true, cq.sumLikeAnnots)

  /** The result step ending a plan over `op`: for an aggregate or
    * `DISTINCT` query, `op` grouped to the output attributes — `op` itself
    * when it is already a deduplicating projection onto them. A
    * full-enumeration query outputs every attribute of `op` as it is.
    */
  def result(cq: CQ, op: Op): Op = op match {
    case _ if !cq.distinctOutput                                 => op
    case p: Project if p.dedupe && p.keep.toSet == cq.outputSet => op
    case _ => Project(op, op.attrs.filter(cq.outputSet), dedupe = true, cq.sumLikeAnnots)
  }

  /** Column pruning only — used when `keep` is known unique in `child`
    * (aggregation elimination, paper §5.1).
    */
  def prune(child: Op, keep: Vector[String]): Op =
    if (keep == child.attrs) child
    else Project(child, keep, dedupe = false, Set.empty)
}
