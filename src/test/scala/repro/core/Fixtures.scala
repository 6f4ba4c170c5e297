package repro.core

/** The paper's running-example queries as CQ fixtures (Examples 2.1/2.3):
  *
  *   Q1 = π_{x1,x2,x8}(R1(x1,x2,x3,x4) ⋈ R2(x2,x5) ⋈ R3(x3,x4) ⋈
  *        R4(x3,x6) ⋈ R5(x4,x7) ⋈ R6(x7,x8))        — acyclic, not FC
  *   Q2 = π_{x1,x2,x3,x5,x6}(…)                      — free-connex
  *   Q3 = π_{x1}(…)                                  — relation-dominated
  *   Q4 = π_{x1}(R1(x1,x2) ⋈ R2(x2,x3))              — Example 3.1
  */
object Fixtures {
  val paperAtoms: Vector[Atom] = Vector(
    Atom("R1", Vector("x1", "x2", "x3", "x4")),
    Atom("R2", Vector("x2", "x5")),
    Atom("R3", Vector("x3", "x4")),
    Atom("R4", Vector("x3", "x6")),
    Atom("R5", Vector("x4", "x7")),
    Atom("R6", Vector("x7", "x8")))

  def count(alias: String = "cnt"): Vector[AggSpec] =
    Vector(AggSpec(alias, Semiring.CountProduct))

  val q1: CQ = CQ("q1", paperAtoms, Vector("x1", "x2", "x8"), count())
  val q2: CQ = CQ("q2", paperAtoms, Vector("x1", "x2", "x3", "x5", "x6"), count())
  val q3: CQ = CQ("q3", paperAtoms, Vector("x1"), count())
  val q4: CQ = CQ("q4",
    Vector(Atom("R1", Vector("x1", "x2")), Atom("R2", Vector("x2", "x3"))),
    Vector("x1"), count())

  def line(k: Int, output: Vector[String], aggs: Vector[AggSpec] = Vector.empty,
           distinct: Boolean = true): CQ =
    CQ(s"line$k",
      (1 to k).map(i => Atom(s"e$i", Vector(s"x$i", s"x${i + 1}"))).toVector,
      output, aggs, distinct)

  /** `SELECT DISTINCT x FROM a(x), b(y)`: b only has to be non-empty. */
  val crossDistinct: CQ = CQ("crossDistinct",
    Vector(Atom("a", Vector("x")), Atom("b", Vector("y"))), Vector("x"))

  val triangle: CQ = CQ("triangle", Vector(
    Atom("e1", Vector("a", "b")), Atom("e2", Vector("b", "c")),
    Atom("e3", Vector("c", "a"))), Vector.empty, count())

  /** Example 4.1's 7-relation dumbbell. */
  val dumbbell: CQ = CQ("dumbbell", Vector(
    Atom("r1", Vector("x1", "x2")), Atom("r2", Vector("x2", "x3")),
    Atom("r3", Vector("x3", "x1")), Atom("r4", Vector("x3", "x4")),
    Atom("r5", Vector("x4", "x5")), Atom("r6", Vector("x5", "x6")),
    Atom("r7", Vector("x6", "x4"))), Vector.empty, count())

  /** The paper's T1 join tree (Fig. 1a, used in Examples 2.4/3.3):
    * R5(x4,x7) root — children R1, R6; R1 — children R2, R3; R3 — child R4.
    */
  val q1TreeT1: RootedTree = RootedTree("R5", Vector(
    RootedTree("R1", Vector(
      RootedTree("R2", Vector.empty),
      RootedTree("R3", Vector(RootedTree("R4", Vector.empty))))),
    RootedTree("R6", Vector.empty)))

  /** T2 (Fig. 1b, used in Example 3.2): R1 root — children R2, R3, R4,
    * R5; R5 — child R6.
    */
  val q1TreeT2: RootedTree = RootedTree("R1", Vector(
    RootedTree("R2", Vector.empty),
    RootedTree("R3", Vector.empty),
    RootedTree("R4", Vector.empty),
    RootedTree("R5", Vector(RootedTree("R6", Vector.empty)))))
}
