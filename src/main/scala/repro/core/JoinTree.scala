package repro.core

/** A rooted join tree over the atoms of a CQ (paper §2.2). */
final case class RootedTree(atomId: String, children: Vector[RootedTree]) {

  /** Nodes in post-order (children before parents; root last). */
  def postOrder: Vector[String] =
    children.flatMap(_.postOrder) :+ atomId

  def size: Int = 1 + children.map(_.size).sum

  def height: Int = if (children.isEmpty) 0 else 1 + children.map(_.height).max

  /** Parent-of map (root absent). */
  def parents: Map[String, String] = {
    val b = Map.newBuilder[String, String]
    def walk(t: RootedTree): Unit = t.children.foreach { c =>
      b += (c.atomId -> t.atomId); walk(c)
    }
    walk(this); b.result()
  }

  /** Undirected edges of the tree. */
  def edges: Set[(String, String)] =
    parents.toSet[(String, String)].map { case (c, p) => if (c < p) (c, p) else (p, c) }

  def render(indent: String = ""): String =
    s"$indent$atomId\n" + children.map(_.render(indent + "  ")).mkString
}

/** Join-tree construction, enumeration, and structural query classes
  * (free-connex, relation-dominated).
  */
object JoinTree {

  /** Root an undirected tree (given as an adjacency edge set over atom
    * ids) at `root`.
    */
  def root(edges: Set[(String, String)], nodes: Set[String], rootId: String): RootedTree = {
    val adj = nodes.map(n => n -> List.newBuilder[String]).toMap
    edges.foreach { case (a, b) => adj(a) += b; adj(b) += a }
    def build(v: String, parent: Option[String]): RootedTree =
      RootedTree(v, adj(v).result().filterNot(parent.contains)
        .sorted.map(build(_, Some(v))).toVector)
    build(rootId, None)
  }

  /** Does this tree satisfy the running-intersection property — for every
    * attribute, do the atoms containing it induce a connected subtree?
    */
  def isValid(cq: CQ, edges: Set[(String, String)]): Boolean = {
    val adj = cq.atoms.map(a => a.id -> List.newBuilder[String]).toMap
    edges.foreach { case (a, b) => adj(a) += b; adj(b) += a }
    val adjm = adj.map { case (k, v) => k -> v.result() }
    cq.attrSet.forall { x =>
      val holders = cq.atomsWith(x).map(_.id).toSet
      if (holders.size <= 1) true
      else {
        var seen = Set(holders.head); var stack = List(holders.head)
        while (stack.nonEmpty) {
          val v = stack.head; stack = stack.tail
          adjm(v).filter(n => holders(n) && !seen(n)).foreach { n =>
            seen += n; stack ::= n
          }
        }
        seen == holders
      }
    }
  }

  /** All spanning trees of the candidate graph, capped. The candidate
    * edges are the intersection-graph edges; for disconnected hypergraphs
    * cross-component (Cartesian) edges are added so a tree exists.
    */
  private def spanningTrees(cq: CQ, cap: Int): Vector[Set[(String, String)]] = {
    val n = cq.atoms.size
    if (n == 1) return Vector(Set.empty)
    val ids = cq.atoms.map(_.id)
    var cand = Hypergraph.intersectionEdges(cq.atoms)
    val comps = Hypergraph.components(cq.atoms)
    if (comps.size > 1)
      cand ++= (for {
        ci <- comps.indices; cj <- (ci + 1) until comps.size
        i <- comps(ci); j <- comps(cj)
      } yield if (i < j) (i, j) else (j, i))

    val out = Vector.newBuilder[Set[(String, String)]]
    var count = 0
    // Backtracking over the candidate edge list with union-find.
    def rec(idx: Int, parent: Array[Int], chosen: List[(Int, Int)], picked: Int): Unit = {
      if (count >= cap) return
      if (picked == n - 1) {
        out += chosen.map { case (i, j) =>
          val (a, b) = (ids(i), ids(j)); if (a < b) (a, b) else (b, a)
        }.toSet
        count += 1
        return
      }
      if (idx >= cand.size || cand.size - idx < n - 1 - picked) return
      def find(p: Array[Int], v: Int): Int = if (p(v) == v) v else find(p, p(v))
      val (i, j) = cand(idx)
      val (ri, rj) = (find(parent, i), find(parent, j))
      if (ri != rj) { // include edge
        val p2 = parent.clone(); p2(ri) = rj
        rec(idx + 1, p2, (i, j) :: chosen, picked + 1)
      }
      rec(idx + 1, parent, chosen, picked) // exclude edge
    }
    rec(0, Array.tabulate(n)(identity), Nil, 0)
    out.result()
  }

  /** Enumerate valid *unrooted* join trees (edge sets), capped. For an
    * acyclic CQ at least one tree is returned (spanning-tree cap permitting;
    * the maximum-weight spanning tree is always a join tree and is seeded
    * explicitly so capping can never drop it).
    */
  def enumerateUnrooted(cq: CQ, cap: Int = 400): Vector[Set[(String, String)]] = {
    val all = (maxWeightTree(cq).toVector ++ spanningTrees(cq, cap)).distinct
    all.filter(isValid(cq, _))
  }

  /** Maximum-weight spanning tree (weight = #shared attributes) — a valid
    * join tree whenever the CQ is acyclic (Bernstein–Goodman).
    */
  def maxWeightTree(cq: CQ): Option[Set[(String, String)]] = {
    val n = cq.atoms.size
    if (n == 1) return Some(Set.empty)
    val ids = cq.atoms.map(_.id)
    val weighted = (for {
      i <- cq.atoms.indices; j <- (i + 1) until n
    } yield ((i, j), (cq.atoms(i).attrSet & cq.atoms(j).attrSet).size))
      .sortBy(-_._2)
    val parent = Array.tabulate(n)(identity)
    def find(v: Int): Int = if (parent(v) == v) v else { parent(v) = find(parent(v)); parent(v) }
    var edges = Set.empty[(String, String)]
    weighted.foreach { case ((i, j), _) =>
      if (edges.size < n - 1 && find(i) != find(j)) {
        parent(find(i)) = find(j)
        val (a, b) = (ids(i), ids(j))
        edges += (if (a < b) (a, b) else (b, a))
      }
    }
    if (edges.size == n - 1) Some(edges) else None
  }

  /** All rooted valid join trees (each unrooted tree rooted at every
    * node), capped.
    */
  def enumerateRooted(cq: CQ, cap: Int = 400): Vector[RootedTree] = {
    val nodes = cq.atoms.map(_.id).toSet
    for {
      e <- enumerateUnrooted(cq, cap)
      r <- cq.atoms.map(_.id)
    } yield root(e, nodes, r)
  }

  /** A deterministic default join tree: max-weight spanning tree, rooted
    * at the atom covering the most output attributes (ties by id).
    */
  def defaultTree(cq: CQ): RootedTree = {
    val edges = maxWeightTree(cq).getOrElse(
      throw new IllegalArgumentException(s"${cq.name}: no spanning tree"))
    val nodes = cq.atoms.map(_.id).toSet
    if (!isValid(cq, edges))
      throw new IllegalArgumentException(s"${cq.name}: cyclic — no join tree (use GHD)")
    val rootId = cq.atoms.maxBy(a => ((a.attrSet & cq.outputSet).size, a.id))(
      Ordering.Tuple2(Ordering.Int, Ordering.String.reverse)).id
    root(edges, nodes, rootId)
  }

  /** The maximal connex subset T_n of a rooted tree (Lemma 2.2): grown
    * from the root, a node joins T_n iff its join attributes with its
    * parent are all output attributes.
    */
  def connexSubset(cq: CQ, tree: RootedTree): Set[String] = {
    def grow(t: RootedTree): Set[String] =
      t.children.filter { c =>
        (cq.atom(c.atomId).attrSet & cq.atom(t.atomId).attrSet).subsetOf(cq.outputSet)
      }.flatMap(grow).toSet + t.atomId
    grow(tree)
  }

  /** Is `tree` a free-connex join tree for `cq` (Lemma 2.2)? */
  def isFreeConnex(cq: CQ, tree: RootedTree): Boolean = {
    val tn = connexSubset(cq, tree)
    cq.outputSet.subsetOf(tn.flatMap(id => cq.atom(id).attrSet))
  }

  /** Is the query free-connex — does *some* rooted join tree pass? */
  def isFreeConnexQuery(cq: CQ, cap: Int = 400): Boolean =
    Hypergraph.isAcyclic(cq) && enumerateRooted(cq, cap).exists(isFreeConnex(cq, _))

  /** The dominating relation of a relation-dominated query, if any. */
  def dominatingAtom(cq: CQ): Option[Atom] =
    if (!Hypergraph.isAcyclic(cq)) None
    else cq.atoms.find(a => cq.outputSet.subsetOf(a.attrSet))

  def isRelationDominated(cq: CQ): Boolean = dominatingAtom(cq).isDefined
}
