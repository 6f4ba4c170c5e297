package repro.workloads

import repro.{Oracle, SparkSpec}
import repro.core.Hypergraph

/** LSQB-lite: oracle correctness of all 9 queries under all methods
  * (cyclic q4/q5/q8 exercise the GHD path).
  */
class LsqbSpec extends SparkSpec {

  private lazy val wl = LsqbLite.workloads(LsqbLite.tables(spark, sf = 0.05))

  private val names = (1 to 9).map(i => s"q$i")

  for (name <- names; m <- Seq(Runner.Native, Runner.Classic, Runner.Plus)) {
    test(s"$name / ${m.label} matches oracle") {
      val w = wl(name)
      val r = Runner.run(w, m)
      Oracle.assertEquivalent(r.df, w.cq, w.instances)
      r.cleanup()
    }
  }

  test("q4, q5, q8 are the cyclic queries") {
    assert(!Hypergraph.isAcyclic(wl("q4").cq))
    assert(!Hypergraph.isAcyclic(wl("q5").cq))
    assert(!Hypergraph.isAcyclic(wl("q8").cq))
    for (n <- Seq("q1", "q2", "q3", "q6", "q7", "q9"))
      assert(Hypergraph.isAcyclic(wl(n).cq), n)
  }

  test("q1's declared referential integrity holds on the generated data") {
    val w = wl("q1")
    for ((a, b) <- w.cfg.refIntegrity) {
      val l = w.instances(a); val r = w.instances(b)
      val common = l.columns.toSet & r.columns.toSet
      val dangling = l.join(r, common.toSeq, "left_anti").count()
      assert(dangling == 0, s"$a ⋉ $b drops $dangling rows")
    }
  }
}
