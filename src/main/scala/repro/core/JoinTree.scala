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

  /** The weight every join tree has: `Σ_x (|atoms holding x| − 1)`. The
    * edges of a spanning tree that lie inside the holders of `x` form a
    * forest on them, so `x` adds at most `|holders(x)| − 1` to the tree's
    * weight, with equality iff its holders are connected in the tree
    * (Bernstein–Goodman).
    */
  private def joinTreeWeight(cq: CQ): Int =
    cq.atoms.map(_.attrSet.size).sum - cq.attrSet.size

  /** Does the spanning tree `edges` satisfy the running-intersection
    * property — for every attribute, do the atoms containing it induce a
    * connected subtree? True iff its weight reaches [[joinTreeWeight]].
    */
  def isValid(cq: CQ, edges: Set[(String, String)]): Boolean =
    edges.toVector.map { case (a, b) => (cq.atom(a).attrSet & cq.atom(b).attrSet).size }
      .sum == joinTreeWeight(cq)

  /** Every *unrooted* join tree (edge set), lazily. Include/exclude
    * backtracking over all atom pairs, heaviest first, that prunes a branch
    * once its weight plus the heaviest edges it may still pick cannot
    * reach [[joinTreeWeight]]; so it yields exactly the join trees. For a
    * cyclic query it yields nothing.
    */
  def enumerateUnrooted(cq: CQ): LazyList[Set[(String, String)]] = {
    val n = cq.atoms.size
    val ids = cq.atoms.map(_.id)
    val pairs = (for {
      i <- 0 until n; j <- (i + 1) until n
    } yield ((i, j), (cq.atoms(i).attrSet & cq.atoms(j).attrSet).size)).sortBy(-_._2)
    val prefix = pairs.scanLeft(0)(_ + _._2)
    // weight of the `count` heaviest pairs from `from` on
    def heaviest(from: Int, count: Int): Int = prefix(from + count) - prefix(from)
    val target = joinTreeWeight(cq)

    def find(p: Array[Int], v: Int): Int = if (p(v) == v) v else find(p, p(v))
    def rec(idx: Int, parent: Array[Int], chosen: List[(Int, Int)], picked: Int,
            w: Int): Iterator[Set[(String, String)]] = {
      val need = n - 1 - picked
      if (need == 0) Iterator.single(chosen.map { case (i, j) =>
        val (a, b) = (ids(i), ids(j)); if (a < b) (a, b) else (b, a)
      }.toSet)
      else if (idx + need > pairs.size || w + heaviest(idx, need) < target) Iterator.empty
      else {
        val ((i, j), wij) = pairs(idx)
        val (ri, rj) = (find(parent, i), find(parent, j))
        val include =
          if (ri == rj) Iterator.empty
          else {
            val p2 = parent.clone(); p2(ri) = rj
            rec(idx + 1, p2, (i, j) :: chosen, picked + 1, w + wij)
          }
        include ++ rec(idx + 1, parent, chosen, picked, w)
      }
    }
    LazyList.from(rec(0, Array.tabulate(n)(identity), Nil, 0, 0))
  }

  /** Maximum-weight spanning tree (weight = #shared attributes) — a valid
    * join tree whenever the CQ is acyclic (Bernstein–Goodman). It is the
    * first tree [[enumerateUnrooted]] yields: the path that includes every
    * pair joining two components is Kruskal's greedy pass over the
    * heaviest-first pairs, and no bound prunes it. None for a cyclic CQ.
    */
  def maxWeightTree(cq: CQ): Option[Set[(String, String)]] =
    enumerateUnrooted(cq).headOption

  /** All rooted join trees (each unrooted tree rooted at every node),
    * lazily.
    */
  def enumerateRooted(cq: CQ): LazyList[RootedTree] = {
    val nodes = cq.atoms.map(_.id).toSet
    for {
      e <- enumerateUnrooted(cq)
      r <- cq.atoms.map(_.id)
    } yield root(e, nodes, r)
  }

  /** A deterministic default join tree: max-weight spanning tree, rooted
    * at the atom covering the most output attributes (ties by id).
    */
  def defaultTree(cq: CQ): RootedTree = {
    val edges = maxWeightTree(cq).getOrElse(
      throw new IllegalArgumentException(s"${cq.name}: cyclic — no join tree (use GHD)"))
    val nodes = cq.atoms.map(_.id).toSet
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

  /** Is the query free-connex — does *some* rooted join tree pass? True
    * iff both `H` and `H ∪ {O}` are acyclic (Bagan, Durand & Grandjean,
    * CSL 2007). The first test is needed: a triangle with `O` = all of its
    * attributes makes `H ∪ {O}` acyclic.
    */
  def isFreeConnexQuery(cq: CQ): Boolean = {
    // longer than every atom id, so no atom has it
    val outputAtom = Atom(cq.atoms.map(_.id).mkString("O(", ",", ")"), cq.output)
    Hypergraph.isAcyclic(cq) && Hypergraph.isAcyclic(cq.atoms :+ outputAtom)
  }

  /** The dominating relation of a relation-dominated query, if any. */
  def dominatingAtom(cq: CQ): Option[Atom] =
    if (!Hypergraph.isAcyclic(cq)) None
    else cq.atoms.find(a => cq.outputSet.subsetOf(a.attrSet))

  def isRelationDominated(cq: CQ): Boolean = dominatingAtom(cq).isDefined
}
