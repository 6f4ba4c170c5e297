package repro.workloads

import repro.{Oracle, SparkSpec}
import repro.core.Hypergraph
import repro.ghd.GHD

/** SGPB: Table 6 classification (computed, not hard-coded) and oracle
  * correctness of all 16 queries under all three methods.
  */
class SgpbSpec extends SparkSpec {

  // Table 6's expected (type, predicates, free-connex) per query.
  private val table6 = Map(
    "q1a" -> ("Full Enumerate", 1, true), "q1b" -> ("Aggregation", 0, true),
    "q1c" -> ("Projection", 0, true), "q2a" -> ("Full Enumerate", 1, true),
    "q2b" -> ("Aggregation", 0, true), "q3a" -> ("Full Enumerate", 1, true),
    "q3b" -> ("Aggregation", 0, true), "q3c" -> ("Projection", 0, true),
    "q4a" -> ("Projection", 0, true), "q4b" -> ("Aggregation", 0, true),
    "q5a" -> ("Projection", 0, true), "q5b" -> ("Aggregation", 0, true),
    "q6" -> ("Projection", 0, false), "q7" -> ("Aggregation", 0, false),
    "q8" -> ("Aggregation", 0, false), "q9" -> ("Aggregation", 0, false))

  private val wl: Map[String, Workload] =
    Sgpb.queries.map(q => q.name -> Sgpb.workload(spark, q.name,
      nEdges = 1500, nVertices = 300)).toMap

  for (q <- Sgpb.queries) {
    test(s"Table 6 classification of ${q.name}") {
      val w = wl(q.name)
      val (tpe, preds, fc) = table6(q.name)
      assert(w.queryType == tpe)
      assert(w.predicates == preds)
      assert(GHD.isGeneralizedFreeConnex(w.cq) == fc)
    }
  }

  for (q <- Sgpb.queries; m <- Seq(Runner.Native, Runner.Classic, Runner.Plus)) {
    test(s"${q.name} / ${m.label} matches oracle") {
      val w = wl(q.name)
      val r = Runner.run(w, m)
      Oracle.assertEquivalent(r.df, w.cq, w.instances)
      r.cleanup()
    }
  }

  test("dumbbell queries are cyclic and take the GHD path") {
    assert(!Hypergraph.isAcyclic(wl("q2b").cq))
    val (cq2, _, _, _) = Runner.acyclify(wl("q2b"))
    assert(Hypergraph.isAcyclic(cq2))
    assert(cq2.atoms.size < wl("q2b").cq.atoms.size)
  }
}
