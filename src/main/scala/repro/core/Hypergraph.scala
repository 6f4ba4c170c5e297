package repro.core

/** Hypergraph structure of a CQ: atoms are hyperedges over attributes.
  * Provides the GYO reduction (acyclicity test, paper §2.2) and the atom
  * intersection graph, whose components decide whether a GHD bag is
  * connected.
  */
object Hypergraph {

  /** One GYO ear-removal step witness: `ear` was absorbed by `witness`
    * (None when the ear's non-unique attributes are empty).
    */
  final case class EarStep(ear: String, witness: Option[String])

  /** Run the GYO reduction: repeatedly remove an *ear* — an atom whose
    * attributes, after dropping those unique to it, are contained in some
    * other atom. Returns the removal sequence and the ids left over; the
    * query is acyclic iff at most one atom remains.
    */
  def gyo(atoms: Vector[Atom]): (Vector[EarStep], Vector[Atom]) = {
    var live = atoms
    val steps = Vector.newBuilder[EarStep]
    var changed = true
    while (changed && live.size > 1) {
      changed = false
      val found = live.iterator.flatMap { a =>
        val others = live.filter(_.id != a.id)
        val shared = a.attrSet.filter(x => others.exists(_.attrSet(x)))
        if (shared.isEmpty) Some(EarStep(a.id, None))
        else others.find(o => shared.subsetOf(o.attrSet)).map(w => EarStep(a.id, Some(w.id)))
      }.take(1).toList
      found.headOption.foreach { s =>
        steps += s
        live = live.filter(_.id != s.ear)
        changed = true
      }
    }
    (steps.result(), live)
  }

  /** Is the query (as a hypergraph) α-acyclic? */
  def isAcyclic(atoms: Vector[Atom]): Boolean = gyo(atoms)._2.size <= 1

  def isAcyclic(cq: CQ): Boolean = isAcyclic(cq.atoms)

  /** Undirected intersection-graph edges `(i, j)` (i < j by atom index)
    * between atoms sharing at least one attribute.
    */
  def intersectionEdges(atoms: Vector[Atom]): Vector[(Int, Int)] =
    (for {
      i <- atoms.indices
      j <- (i + 1) until atoms.size
      if (atoms(i).attrSet & atoms(j).attrSet).nonEmpty
    } yield (i, j)).toVector

  /** Connected components of the intersection graph, as index sets. */
  def components(atoms: Vector[Atom]): Vector[Set[Int]] = {
    val adj = Array.fill(atoms.size)(List.empty[Int])
    intersectionEdges(atoms).foreach { case (i, j) =>
      adj(i) ::= j; adj(j) ::= i
    }
    val seen = Array.fill(atoms.size)(false)
    val out = Vector.newBuilder[Set[Int]]
    for (s <- atoms.indices if !seen(s)) {
      var stack = List(s); var comp = Set.empty[Int]
      while (stack.nonEmpty) {
        val v = stack.head; stack = stack.tail
        if (!seen(v)) { seen(v) = true; comp += v; stack = adj(v).filterNot(seen) ++ stack }
      }
      out += comp
    }
    out.result()
  }
}
