package repro.workloads

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._

/** TPC-H-lite: Q9 (paper §1 running example, PK and 3-copy variants),
  * Q3/Q10/Q19, cyclic Q5 (cycle elimination), and the §4.2 nested-query
  * staging (Q17 pattern).
  */
class TpchSpec extends SparkSpec {

  private lazy val t = TpchLite.tables(spark, sf = 0.002)

  private def check(w: Workload, m: Runner.Method): Unit = {
    val r = Runner.run(w, m)
    Oracle.assertEquivalent(r.df, w.cq, w.instances)
    r.cleanup()
  }

  for (m <- Seq(Runner.Native, Runner.Classic, Runner.Plus)) {
    test(s"Q9 / ${m.label} matches oracle") { check(TpchLite.q9(t), m) }
    test(s"Q3 / ${m.label} matches oracle") { check(TpchLite.q3(t), m) }
    test(s"Q10 / ${m.label} matches oracle") { check(TpchLite.q10(t), m) }
    test(s"Q19 / ${m.label} matches oracle") { check(TpchLite.q19(t), m) }
    test(s"Q5 (cyclic) / ${m.label} matches oracle") { check(TpchLite.q5(t), m) }
  }

  test("Q9 on the 3-copy dataset (many-to-many) matches oracle") {
    val t3 = TpchLite.withCopies(t, 3)
    check(TpchLite.q9(t3, pk = false), Runner.Plus)
    check(TpchLite.q9(t3, pk = false), Runner.Classic)
  }

  test("Q5 goes through cycle elimination (keys declared)") {
    val w = TpchLite.q5(t)
    assert(!Hypergraph.isAcyclic(w.cq))
    val (cq2, _, _, _) = Runner.acyclify(w)
    assert(Hypergraph.isAcyclic(cq2))
    assert(cq2.atoms.size == w.cq.atoms.size) // renamed, not decomposed
  }

  test("Q9 is acyclic but not free-connex (paper Example 2.3)") {
    val w = TpchLite.q9(t)
    assert(Hypergraph.isAcyclic(w.cq))
    assert(!JoinTree.isFreeConnexQuery(w.cq))
  }

  test("Q3 is free-connex") {
    assert(JoinTree.isFreeConnexQuery(TpchLite.q3(t).cq))
  }

  test("Q19 is relation-dominated (empty output)") {
    assert(JoinTree.isRelationDominated(TpchLite.q19(t).cq))
  }

  test("nested query staging (§4.2, TPC-H Q17 pattern) matches a direct computation") {
    // Inner: per-part average quantity (sum + count, avg derived).
    val li = t.lineitem.select(col("l_partkey").as("pk_"),
      col("l_quantity").as("qty"))
    val inner = CQ("q17_inner", Vector(Atom("l", Vector("pk_", "qty"))),
      Vector("pk_"),
      Vector(AggSpec("sq", Semiring.SumProduct, Map("l" -> "qty")),
        AggSpec("cq", Semiring.CountProduct)))
    val innerInst: CQ.Instances = Map("l" -> li)
    // Outer: lineitem below 0.2*avg joined with filtered part.
    val outerAtomDf = Nested.stage(inner, innerInst, Map.empty, "thr",
      df => df.select(col("pk_"), (lit(0.2) * col("sq") / col("cq")).as("thr")))("thr")
    val p = t.part.filter(col("p_size") <= 10).select(col("p_partkey").as("pk_"))
    val outer = CQ("q17_outer", Vector(
      Atom("l", Vector("pk_", "qty", "price")),
      Atom("p", Vector("pk_")),
      Atom("thr_", Vector("pk_", "thr"))),
      Vector.empty,
      Vector(AggSpec("s", Semiring.SumProduct, Map("l" -> "price"))))
    // predicate qty < thr is a selection after joining thr; emulate by
    // evaluating the CQ on lineitem pre-joined with the threshold.
    val lw = t.lineitem.select(col("l_partkey").as("pk_"),
      col("l_quantity").as("qty"), col("l_extendedprice").as("price"))
    val ljoined = lw.join(outerAtomDf, Seq("pk_")).filter(col("qty") < col("thr"))
      .select("pk_", "qty", "price")
    val outerInst: CQ.Instances = Map(
      "l" -> ljoined, "p" -> p,
      "thr_" -> outerAtomDf)
    val res = Executor.run(YannakakisPlus.plan(outer), outerInst)
    // direct Spark computation of the same nested query
    val direct = lw.join(outerAtomDf, Seq("pk_")).filter(col("qty") < col("thr"))
      .join(p, Seq("pk_"))
      .agg(sum("price").as("s"))
    val got = res.df.collect()(0).getDouble(0)
    val want = direct.collect()(0).getDouble(0)
    assert(math.abs(got - want) < 1e-6, s"got=$got want=$want")
    res.cleanup()
  }
}
