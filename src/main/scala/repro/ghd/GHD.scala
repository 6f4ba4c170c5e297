package repro.ghd

import repro.core._
import repro.opt.{AtomStats, Stats}

/** Generalized hypertree decompositions for cyclic queries (paper §4.1).
  *
  * We search *partitions* of the atoms into connected bags such that the
  * bag hypergraph (each bag's attribute set is the union of its members')
  * is acyclic. Partitioning — rather than covering — sidesteps the
  * annotation-duplication problem the paper solves with `R¹` copies: each
  * atom contributes its annotation in exactly one bag. Example 4.1's
  * dumbbell decomposes into its two triangles plus the bridge.
  *
  * Each multi-atom bag is materialized with the engine's own binary join
  * plan (the paper does the same absent WCOJ support); the resulting bag
  * relations form an acyclic CQ evaluated by Yannakakis+.
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

  /** Pick the decomposition minimizing the estimated total bag
    * materialization size (chain-formula estimate over member stats),
    * preferring fewer/smaller bags on ties.
    */
  def bestDecomposition(cq: CQ, stats: Map[String, AtomStats]): Option[Decomposition] = {
    val all = decompositions(cq)
    if (all.isEmpty) None
    else Some(all.minBy { d =>
      (d.bags.map(bagEstimate(cq, stats, _)).sum, d.bags.size, d.toString)
    })
  }

  private def bagEstimate(cq: CQ, stats: Map[String, AtomStats], bag: Bag): Double = {
    // Chain join estimate: multiply rows, divide by max NDV per shared attr.
    val members = bag.memberIds.map(cq.atom)
    var rows = members.map(a => stats.get(a.id).map(_.rows).getOrElse(1000.0)).product
    val attrs = members.flatMap(_.attrs).distinct
    attrs.foreach { x =>
      val holders = members.filter(_.attrSet(x))
      if (holders.size >= 2) {
        val nds = holders.map(a => stats.get(a.id).flatMap(_.ndv.get(x)).getOrElse(100.0))
        rows /= math.pow(nds.max, holders.size - 1)
      }
    }
    math.max(rows, 1.0)
  }

  /** A multi-atom bag's statistics as [[bestDecomposition]] estimates
    * them: the chain estimate's rows, and each attribute's NDV the least
    * over the members holding it, capped at those rows.
    */
  private def bagStats(sub: CQ, subInst: CQ.Instances, bag: Bag): AtomStats = {
    val stats = Stats.of(sub, subInst)
    val rows = bagEstimate(sub, stats, bag)
    AtomStats(rows, sub.output.map(x =>
      x -> math.min(rows, sub.atomsWith(x).map(a => stats(a.id).ndv(x)).min)).toMap)
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

  /** Materialize the bags (multi-atom bags via the engine's native binary
    * join plan) and return the equivalent acyclic CQ with rebound
    * instances and aggregates remapped onto the bags. A multi-atom bag's
    * statistics are derived from its members' (see [[bagStats]]), so
    * planning over the bags runs no bag join.
    */
  def materialize(cq: CQ, inst: CQ.Instances,
                  dec: Decomposition): (CQ, CQ.Instances) = {
    val atoms2 = dec.bags.map(b => Atom(b.id, b.attrs(cq)))
    val inst2 = dec.bags.map { b =>
      val df =
        if (b.memberIds.size == 1) inst(b.memberIds.head)
        else {
          val sub = CQ(s"${cq.name}_${b.id}",
            b.memberIds.map(cq.atom),
            b.attrs(cq), Vector.empty, distinctOutput = false)
          val subInst = b.memberIds.map(id => id -> inst(id)).toMap
          Stats.derive(Executor.runNative(sub, subInst))(bagStats(sub, subInst, b))
        }
      b.id -> df
    }.toMap
    val atomToBag = dec.bags.flatMap(b => b.memberIds.map(_ -> b.id)).toMap
    val aggs2 = cq.aggs.map { ag =>
      val byBag = ag.perAtom.groupBy { case (id, _) => atomToBag(id) }
      ag.copy(perAtom = byBag.map { case (bagId, exprs) =>
        bagId -> exprs.values.map(e => s"($e)").mkString(s" ${ag.semiring.timesSql} ")
      })
    }
    (CQ(s"${cq.name}_ghd", atoms2, cq.output, aggs2, cq.distinctOutput), inst2)
  }
}
