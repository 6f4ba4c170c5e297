package repro.ghd

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.core.Fixtures._
import repro.opt.Stats
import repro.workloads.{LsqbLite, Runner, Sgpb, TpchLite, Workload}

/** GHD decomposition and bag materialization for cyclic queries
  * (paper §4.1, Example 4.1).
  */
class GHDSpec extends SparkSpec {

  import spark.implicits._

  test("triangle decomposes into a single bag") {
    val decs = GHD.decompositions(triangle)
    assert(decs.nonEmpty)
    assert(decs.exists(_.bags.size == 1))
  }

  test("Example 4.1: the dumbbell admits the two-triangles-plus-bridge decomposition") {
    val decs = GHD.decompositions(dumbbell)
    val want = decs.find { d =>
      d.bags.map(_.memberIds.toSet).toSet ==
        Set(Set("r1", "r2", "r3"), Set("r4"), Set("r5", "r6", "r7"))
    }
    assert(want.isDefined, decs.map(_.bags.map(_.memberIds)).mkString("\n"))
  }

  test("every decomposition's bag hypergraph is acyclic") {
    for (d <- GHD.decompositions(dumbbell))
      assert(Hypergraph.isAcyclic(GHD.structuralCQ(dumbbell, d)))
  }

  test("acyclic queries trivially decompose into singleton bags") {
    val decs = GHD.decompositions(q1)
    assert(decs.exists(_.bags.forall(_.memberIds.size == 1)))
  }

  test("bestDecomposition picks a valid decomposition for the 5-cycle") {
    val cq = CQ("c5", (1 to 5).map(i =>
      Atom(s"e$i", Vector(s"x$i", s"x${i % 5 + 1}"))).toVector,
      Vector.empty, Fixtures.count())
    val stats = cq.atoms.map(a => a.id -> repro.opt.AtomStats(100, Map())).toMap
    val dec = GHD.bestDecomposition(cq, stats)
    assert(dec.isDefined)
    assert(Hypergraph.isAcyclic(GHD.structuralCQ(cq, dec.get)))
  }

  test("triangle count via GHD matches the oracle") {
    val e = repro.SynthData.edges(spark, 1200, 50, seed = 29)
    val inst: CQ.Instances = Map(
      "e1" -> e.select($"src".as("a"), $"dst".as("b")),
      "e2" -> e.select($"src".as("b"), $"dst".as("c")),
      "e3" -> e.select($"src".as("c"), $"dst".as("a")))
    val stats = repro.opt.Stats.collect(triangle, inst)
    val dec = GHD.bestDecomposition(triangle, stats).get
    val (cq2, inst2) = GHD.materialize(triangle, inst, dec)
    val res = Executor.run(YannakakisPlus.plan(cq2), inst2)
    Oracle.assertEquivalent(res.df, triangle, inst)
    res.cleanup()
  }

  test("dumbbell count via GHD matches the oracle") {
    val e = repro.SynthData.edges(spark, 400, 25, seed = 31)
    def seg(a: String, b: String) = e.select($"src".as(a), $"dst".as(b))
    val inst: CQ.Instances = Map(
      "r1" -> seg("x1", "x2"), "r2" -> seg("x2", "x3"), "r3" -> seg("x3", "x1"),
      "r4" -> seg("x3", "x4"), "r5" -> seg("x4", "x5"), "r6" -> seg("x5", "x6"),
      "r7" -> seg("x6", "x4"))
    val stats = repro.opt.Stats.collect(dumbbell, inst)
    val dec = GHD.bestDecomposition(dumbbell, stats).get
    val (cq2, inst2) = GHD.materialize(dumbbell, inst, dec)
    val res = Executor.run(YannakakisPlus.plan(cq2), inst2)
    Oracle.assertEquivalent(res.df, dumbbell, inst)
    res.cleanup()
  }

  test("aggregate sources in the same bag are ⊗-combined") {
    val cq = CQ("tsum", Vector(
      Atom("e1", Vector("a", "b", "v")), Atom("e2", Vector("b", "c")),
      Atom("e3", Vector("c", "a"))), Vector.empty,
      Vector(AggSpec("s", Semiring.SumProduct, Map("e1" -> "v"))))
    val e = repro.SynthData.edges(spark, 600, 30, seed = 37)
    val inst: CQ.Instances = Map(
      "e1" -> e.select($"src".as("a"), $"dst".as("b"),
        floor(rand(5) * 9 + 1).cast("double").as("v")),
      "e2" -> e.select($"src".as("b"), $"dst".as("c")),
      "e3" -> e.select($"src".as("c"), $"dst".as("a")))
    val stats = repro.opt.Stats.collect(cq, inst)
    val dec = GHD.bestDecomposition(cq, stats).get
    val (cq2, inst2) = GHD.materialize(cq, inst, dec)
    val res = Executor.run(YannakakisPlus.plan(cq2), inst2)
    Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("generalized free-connex classification (Table 6 q2a/q2b)") {
    // full-output and empty-output dumbbells are generalized free-connex
    val full = dumbbell.copy(output = (1 to 6).map(i => s"x$i").toVector,
      aggs = Vector.empty, distinctOutput = false)
    assert(GHD.isGeneralizedFreeConnex(full))
    assert(GHD.isGeneralizedFreeConnex(dumbbell)) // O = ∅
    // …but a triangle with two output corners is not obviously so under
    // single-bag decompositions — it still is (bag contains all attrs):
    assert(GHD.isGeneralizedFreeConnex(triangle.copy(output = Vector("a", "b"),
      aggs = Fixtures.count())))
  }

  /** The workload queries that take the GHD path at the specs' scales:
    * TPC-H-lite q5 on the 5-copy tables, SGPB q2a/q2b and LSQB-lite q4, q5
    * and q8.
    */
  private lazy val ghdQueries: Seq[(String, Workload)] = {
    val t = TpchLite.tables(spark, sf = 0.002)
    val lsqb = LsqbLite.workloads(LsqbLite.tables(spark, sf = 0.05))
    (Seq("tpch_q5_5copy" -> TpchLite.q5(TpchLite.withCopies(t, 5)).copy(cfg = RuleConfig.default)) ++
      Sgpb.queries.map(q => s"sgpb_${q.name}" -> Sgpb.workload(spark, q.name,
        nEdges = 1500, nVertices = 300)) ++
      lsqb.toSeq.sortBy(_._1).map { case (n, w) => s"lsqb_$n" -> w }
    ).filter { case (_, w) => Runner.acyclify(w)._1.name.endsWith("_ghd") }
  }

  /** Each GHD query's chosen decomposition and its materialized bags. */
  private lazy val ghdBags: Seq[(String, Workload, GHD.Decomposition, CQ, CQ.Instances)] =
    ghdQueries.map { case (name, w) =>
      val dec = GHD.bestDecomposition(w.cq, Runner.cachedStats(w.cq, w.instances)).get
      val (cq2, inst2) = GHD.materialize(w.cq, w.instances, dec)
      (name, w, dec, cq2, inst2)
    }

  /** The largest q-error (max(est/actual, actual/est)) of a multi-atom
    * bag's derived row estimate on the GHD queries: measured 4.86, on
    * LSQB-lite q8's bag (l1, k, l2). The inputs are seeded, so the
    * figures repeat.
    */
  private val BagQErrorBound = 5.0

  test("a multi-atom bag's derived row estimate is within the q-error bound") {
    val qErrors = for {
      (name, _, dec, cq2, inst2) <- ghdBags
      b <- dec.bags if b.memberIds.size > 1
    } yield {
      val est = Stats.of(inst2(b.id), cq2.atom(b.id).attrs).rows
      val actual = math.max(inst2(b.id).count().toDouble, 1.0)
      (s"$name/${b.id}(${b.memberIds.mkString(",")})", est, actual,
        math.max(est / actual, actual / est))
    }
    qErrors.foreach { case (bag, est, actual, q) =>
      info(f"$bag: estimated $est%.0f, actual $actual%.0f, q-error $q%.2f")
    }
    assert(qErrors.nonEmpty)
    val (bag, _, _, worst) = qErrors.maxBy(_._4)
    info(f"worst: $bag, q-error $worst%.2f")
    assert(worst <= BagQErrorBound, s"$bag")
  }

  test("a bag built through the IR holds the rows of its members' flat join") {
    val bags = for {
      (name, w, dec, cq2, inst2) <- ghdBags
      b <- dec.bags if b.memberIds.size > 1
    } yield {
      val sub = CQ(s"${w.cq.name}_${b.id}", b.memberIds.map(w.cq.atom),
        cq2.atom(b.id).attrs, Vector.empty, distinctOutput = false)
      val subInst = b.memberIds.map(id => id -> w.instances(id)).toMap
      assert(Oracle.canon(inst2(b.id)) == Oracle.canon(Executor.runNative(sub, subInst)),
        s"$name/${b.id}")
      b.id
    }
    assert(bags.nonEmpty)
  }

  test("the robust decompositions are the ones chosen") {
    // Each query's second-best decomposition scores at least 6× worse.
    // TPC-H-lite q5 on the 5-copy tables is left out: its best two score
    // within 1.0005× of each other.
    val want = Map(
      "sgpb_q2a" -> Set(Set("r1", "r2", "r3"), Set("r4"), Set("r5", "r6", "r7")),
      "sgpb_q2b" -> Set(Set("r1", "r2", "r3"), Set("r4"), Set("r5", "r6", "r7")),
      "lsqb_q4" -> Set(Set("k1", "k2", "k3")),
      "lsqb_q5" -> Set(Set("k1", "k2", "k3"), Set("l")),
      "lsqb_q8" -> Set(Set("l1", "k", "l2"), Set("ht")))
    val got = ghdBags.collect { case (name, _, dec, _, _) if want.contains(name) =>
      name -> dec.bags.map(_.memberIds.toSet).toSet
    }.toMap
    assert(got == want)
  }
}
