package repro.ghd

import repro.core._
import repro.opt.{AtomStats, EstimatedCE, Stats}

/** Generalized hypertree decompositions for cyclic queries (paper §4.1).
  *
  * We search *partitions* of the atoms into connected bags such that the
  * bag hypergraph (each bag's attribute set is the union of its members')
  * is acyclic. Partitioning — rather than covering — sidesteps the
  * annotation-duplication problem the paper solves with `R¹` copies: each
  * atom contributes its annotation in exactly one bag. Example 4.1's
  * dumbbell decomposes into its two triangles plus the bridge.
  *
  * A multi-atom bag is binary [[Join]]s over its members' scans (the
  * paper's plan absent WCOJ support), ranked, sized and built by the
  * planner's own estimator and lowering; the resulting bag relations
  * form an acyclic CQ evaluated by Yannakakis+.
  */
object GHD {

  final case class Bag(id: String, memberIds: Vector[String]) {
    def attrs(cq: CQ): Vector[String] =
      memberIds.flatMap(cq.atom(_).attrs).distinct
  }

  final case class Decomposition(bags: Vector[Bag])

  /** Largest bag, in atoms. */
  private val MaxBag = 3

  /** At most this many decompositions are returned. */
  private val Cap = 200

  /** All partitions of the atoms into connected groups (each of size ≤
    * `MaxBag`) whose bag hypergraph is acyclic, capped. Exhaustive for the
    * query sizes in the benchmarks (≤ 8 atoms).
    */
  def decompositions(cq: CQ): Vector[Decomposition] = {
    val out = Vector.newBuilder[Decomposition]
    var count = 0

    def rec(remaining: Vector[Int], acc: Vector[Vector[Int]]): Unit = {
      if (count >= Cap) return
      if (remaining.isEmpty) {
        val bagAtoms = acc.zipWithIndex.map { case (g, i) =>
          Atom(s"bag$i", g.flatMap(j => cq.atoms(j).attrs).distinct)
        }
        if (Hypergraph.isAcyclic(bagAtoms)) {
          out += Decomposition(acc.zipWithIndex.map { case (g, i) =>
            Bag(s"bag$i", g.map(j => cq.atoms(j).id))
          })
          count += 1
        }
        return
      }
      val head = remaining.head
      // head joins each subset of the rest to form its group
      val rest = remaining.tail
      val subsets = rest.toSet.subsets().filter(_.size < MaxBag).toVector
      subsets.foreach { s =>
        val group = (head +: s.toVector.sorted)
        if (Hypergraph.components(group.map(cq.atoms)).size == 1)
          rec(rest.filterNot(s), acc :+ group)
      }
    }

    rec(cq.atoms.indices.toVector, Vector.empty)
    out.result()
  }

  /** The bag as a Plan-IR join of its members' scans: left-deep from its
    * first member, adding each member once it shares an attribute with
    * those already joined (bags are connected, so no join is a cross
    * join). The scans carry no annotation: the bag's aggregates are
    * remapped onto its attributes ([[materialize]]).
    */
  def join(cq: CQ, bag: Bag): Op = {
    def grow(acc: Op, rest: Vector[Scan]): Op =
      if (rest.isEmpty) acc
      else {
        val next = rest.find(_.attrs.exists(acc.attrSet)).getOrElse(rest.head)
        grow(Join(acc, next), rest.filterNot(_ == next))
      }
    val scans = bag.memberIds.map(id => Scan(id, cq.atom(id).attrs, Set.empty))
    grow(scans.head, scans.tail)
  }

  /** Pick the decomposition minimizing the estimated total bag size
    * ([[EstimatedCE]] over each bag's [[join]]), preferring fewer/smaller
    * bags on ties.
    */
  def bestDecomposition(cq: CQ, stats: Map[String, AtomStats]): Option[Decomposition] = {
    val ce = new EstimatedCE(cq, stats)
    val all = decompositions(cq)
    if (all.isEmpty) None
    else Some(all.minBy { d =>
      (d.bags.map(b => ce.estimate(join(cq, b))).sum, d.bags.size, d.toString)
    })
  }

  /** The bag CQ's *structure* only (no instances) — used to classify
    * cyclic queries as generalized free-connex (paper §4.1 / Table 6).
    */
  def structuralCQ(cq: CQ, dec: Decomposition): CQ =
    CQ(s"${cq.name}_bags", dec.bags.map(b => Atom(b.id, b.attrs(cq))),
      cq.output, Vector.empty, distinctOutput = true)

  /** Free-connex in the generalized sense: acyclic queries by join tree,
    * cyclic ones by the existence of a generalized free-connex join tree
    * over some decomposition.
    */
  def isGeneralizedFreeConnex(cq: CQ): Boolean =
    if (Hypergraph.isAcyclic(cq)) JoinTree.isFreeConnexQuery(cq)
    else decompositions(cq).exists(d => JoinTree.isFreeConnexQuery(structuralCQ(cq, d)))

  /** Materialize the bags and return the equivalent acyclic CQ with
    * rebound instances and aggregates remapped onto the bags. A
    * multi-atom bag is its [[join]] lowered like any other plan
    * ([[Executor.materialize]]); its statistics are [[EstimatedCE]]'s rows
    * and NDVs of that join over its members', derived when first asked
    * for, so planning over the bags runs no bag join.
    */
  def materialize(cq: CQ, inst: CQ.Instances,
                  dec: Decomposition): (CQ, CQ.Instances) = {
    lazy val ce = new EstimatedCE(cq, Stats.of(cq, inst))
    val atoms2 = dec.bags.map(b => Atom(b.id, b.attrs(cq)))
    val inst2 = dec.bags.map { b =>
      val df =
        if (b.memberIds.size == 1) inst(b.memberIds.head)
        else {
          val j = join(cq, b)
          Stats.derive(Executor.materialize(cq, j, inst))(ce.est(j))
        }
      b.id -> df
    }.toMap
    val atomToBag = dec.bags.flatMap(b => b.memberIds.map(_ -> b.id)).toMap
    val aggs2 = cq.aggs.map { ag =>
      val byBag = ag.perAtom.groupBy { case (id, _) => atomToBag(id) }
      ag.copy(perAtom = byBag.map { case (bagId, exprs) =>
        bagId -> exprs.values.map(e => s"($e)").reduce(_ + s" ${ag.semiring.timesSql} " + _)
      })
    }
    (CQ(s"${cq.name}_ghd", atoms2, cq.output, aggs2, cq.distinctOutput), inst2)
  }
}
