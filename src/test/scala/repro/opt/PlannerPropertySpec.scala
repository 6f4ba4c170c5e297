package repro.opt

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Planner properties on random acyclic CQs (no Spark): join-tree
  * enumeration, the free-connex test, the cost-based tree choice, and the
  * classic algorithm's operator counts (paper §2.2, §2.3, Lemma 2.2, §5.2).
  * Each case is generated from its own fixed seed, printed on failure.
  */
class PlannerPropertySpec extends AnyFunSuite {
  import PlannerPropertySpec._

  /** The named fixture first, then one random CQ per seed. */
  private lazy val cases: Vector[Case] =
    Case("dense6", Dense6) +: (0 until Cases).toVector.map { i =>
      val seed = Seed(BaseSeed + i)
      Case(s"seed ${BaseSeed + i}", cqGen.pureApply(Gen.Parameters.default, seed))
    }

  private def forAllCases(maxAtoms: Int = 8)(prop: Case => Unit): Unit =
    cases.filter(_.cq.atoms.size <= maxAtoms).foreach(c => withClue(c.clue)(prop(c)))

  /** (a) The enumeration yields exactly the oracle's join trees. */
  private def enumerationIsExact(c: Case): Unit = {
    val got = JoinTree.enumerateUnrooted(c.cq).toSet
    val (extra, missing) = (got -- c.oracleTrees, c.oracleTrees -- got)
    assert(extra.isEmpty && missing.isEmpty,
      s"${extra.size} extra, ${missing.size} missing, e.g. ${(extra ++ missing).headOption}")
  }

  /** (b) The GYO test agrees with the oracle's rootings. */
  private def freeConnexTestIsExact(c: Case): Unit =
    assert(JoinTree.isFreeConnexQuery(c.cq) == c.freeConnex)

  /** (c) A free-connex CQ gets a free-connex tree. */
  private def bestTreeIsFreeConnex(c: Case): Unit =
    if (c.freeConnex) {
      val tree = PlanEnumerator.best(c.cq).tree
      assert(JoinTree.isFreeConnex(c.cq, tree), tree.render())
    }

  /** (d) Paper §2.3's operator counts for the classic algorithm. */
  private def classicCounts(c: Case): Unit = {
    val n = c.cq.atoms.size
    val plan = Yannakakis.plan(c.cq)
    assert(plan.nSemiJoins == 2 * (n - 1) && plan.nJoins == n - 1, plan.render)
  }

  test("the generator yields free-connex and non-free-connex CQs of every size") {
    assert(cases.tail.map(_.cq.atoms.size).toSet == (2 to 8).toSet)
    assert(cases.count(_.freeConnex) >= Cases / 5, cases.count(_.freeConnex))
    assert(cases.count(!_.freeConnex) >= Cases / 5, cases.count(!_.freeConnex))
  }

  test("(a) join-tree enumeration equals the RIP-valid spanning trees (≤ 7 atoms)") {
    forAllCases(maxAtoms = 7)(enumerationIsExact)
  }

  test("(b) isFreeConnexQuery iff some rooted join tree is free-connex") {
    forAllCases()(freeConnexTestIsExact)
  }

  test("(c) the enumerator picks a free-connex tree for every free-connex CQ") {
    forAllCases()(bestTreeIsFreeConnex)
  }

  test("(d) classic Yannakakis emits 2(n-1) semi-joins and n-1 joins") {
    forAllCases()(classicCounts)
  }

  test("the dense 6-atom fixture has 108 join trees and is free-connex") {
    // it is the first case of (a)–(d)
    val c = cases.head
    assert(c.oracleTrees.size == 108 && c.freeConnex)
  }
}

object PlannerPropertySpec {
  val Cases = 400
  val BaseSeed = 20250L

  type Edges = Set[(String, String)]

  /** A free-connex CQ with a dense intersection graph: a search that
    * stops after the first 200 spanning trees finds no free-connex rooting.
    */
  val Dense6: CQ = CQ("dense6", Vector(
    Atom("r0", Vector("a1", "a2", "a3")),
    Atom("r1", Vector("a1", "a4")),
    Atom("r2", Vector("a3", "a1", "a2", "a5")),
    Atom("r3", Vector("a2", "a1", "a3", "a6", "a7")),
    Atom("r4", Vector("a1", "a8", "a9")),
    Atom("r5", Vector("a4", "a1"))),
    Vector("a1", "a3", "a4", "a6", "a8", "a9"),
    Vector(AggSpec("cnt", Semiring.CountProduct)))

  /** A random acyclic CQ with 2–8 atoms, grown as a join tree: each new
    * atom takes a random subset of a random earlier atom's attributes
    * (possibly none, so Cartesian products occur) plus up to two fresh
    * ones. Every attribute's holders are therefore connected. Each
    * attribute is an output attribute with probability 0.4; the aggregate
    * is COUNT(*).
    */
  val cqGen: Gen[CQ] = {
    val first = Gen.choose(1, 3).map(k => Vector(Atom("r0", (0 until k).map(i => s"a$i").toVector)))
    def grow(atoms: Vector[Atom]): Gen[Vector[Atom]] = for {
      p <- Gen.choose(0, atoms.size - 1)
      shared <- Gen.someOf(atoms(p).attrs)
      fresh <- Gen.choose(if (shared.isEmpty) 1 else 0, 2)
    } yield {
      val next = atoms.flatMap(_.attrs).distinct.size
      atoms :+ Atom(s"r${atoms.size}",
        shared.toVector ++ (next until next + fresh).map(i => s"a$i"))
    }
    for {
      n <- Gen.choose(2, 8)
      atoms <- (1 until n).foldLeft(first)((g, _) => g.flatMap(grow))
      attrs = atoms.flatMap(_.attrs).distinct
      inOutput <- Gen.listOfN(attrs.size, Gen.prob(0.4))
    } yield CQ("rand", atoms, attrs.zip(inOutput).collect { case (x, true) => x },
      Vector(AggSpec("cnt", Semiring.CountProduct)))
  }

  final case class Case(label: String, cq: CQ) {
    def clue: String =
      s"$label: ${cq.atoms.map(a => s"${a.id}(${a.attrs.mkString(",")})").mkString(" ")}" +
        s" output (${cq.output.mkString(",")})"

    /** Join trees by brute force for ≤ 7 atoms; the enumerator beyond. */
    lazy val oracleTrees: Set[Edges] =
      if (cq.atoms.size <= 7) bruteForceJoinTrees(cq)
      else JoinTree.enumerateUnrooted(cq).toSet

    /** Does some rooting of some join tree pass Lemma 2.2's test? */
    lazy val freeConnex: Boolean = {
      val ids = cq.atoms.map(_.id)
      oracleTrees.exists(e => ids.exists(r =>
        JoinTree.isFreeConnex(cq, JoinTree.root(e, ids.toSet, r))))
    }
  }

  /** Every (n−1)-subset of atom pairs that is a spanning tree in which,
    * for each attribute, the atoms holding it are connected. Atom sets are
    * bit masks over atom indices.
    */
  def bruteForceJoinTrees(cq: CQ): Set[Edges] = {
    val ids = cq.atoms.map(_.id)
    val all = (1 << ids.size) - 1
    val holders = cq.attrSet.toVector.map(x =>
      ids.indices.filter(i => cq.atoms(i).attrSet(x)).map(1 << _).sum)
    val pairs = for (i <- ids.indices; j <- (i + 1) until ids.size) yield (i, j)
    pairs.combinations(ids.size - 1)
      .filter(t => connected(all, t) && holders.forall(connected(_, t)))
      .map(_.map { case (i, j) => if (ids(i) < ids(j)) (ids(i), ids(j)) else (ids(j), ids(i)) }.toSet)
      .toSet
  }

  /** Are the atoms in `nodes` connected by the edges that lie inside it? */
  private def connected(nodes: Int, edges: Seq[(Int, Int)]): Boolean = {
    var seen = Integer.lowestOneBit(nodes)
    var before = 0
    while (seen != before) {
      before = seen
      edges.foreach { case (i, j) =>
        if ((nodes >> i & nodes >> j & 1) == 1 && ((seen >> i | seen >> j) & 1) == 1)
          seen |= 1 << i | 1 << j
      }
    }
    seen == nodes
  }
}
