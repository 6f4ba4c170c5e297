package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import repro.SparkSpec
import Fixtures._

/** Operator-level executor semantics on hand-computed inputs. */
class ExecutorSpec extends SparkSpec {

  import spark.implicits._

  private def df2(name: (String, String), rows: (Long, Long)*) =
    rows.toSeq.toDF(name._1, name._2)

  private val cqCnt = CQ("c", Vector(
    Atom("a", Vector("x", "y")), Atom("b", Vector("y", "z"))),
    Vector("x"), Fixtures.count())

  test("scan projects to atom attrs") {
    val inst = Map("a" -> df2(("x", "y"), (1L, 2L)), "b" -> df2(("y", "z"), (2L, 3L)))
    val df = Executor.materialize(cqCnt, Plan.scan(cqCnt, "a"), inst)
    assert(df.columns.toSeq == Seq("x", "y"))
  }

  test("semi-join filters dangling tuples only") {
    val inst = Map(
      "a" -> df2(("x", "y"), (1L, 10L), (2L, 20L), (3L, 30L)),
      "b" -> df2(("y", "z"), (10L, 1L), (30L, 1L)))
    val op = SemiJoin(Plan.scan(cqCnt, "a"), Plan.scan(cqCnt, "b"))
    // select by name: Spark reorders join columns to the front
    val got = Executor.materialize(cqCnt, op, inst)
      .select("x").collect().map(_.getLong(0)).sorted
    assert(got.toSeq == Seq(1L, 3L))
  }

  test("semi-join with no shared attrs keeps left iff right non-empty") {
    val cq = CQ("x", Vector(Atom("a", Vector("x")), Atom("b", Vector("z"))),
      Vector("x", "z"), Fixtures.count())
    val instNonEmpty = Map("a" -> Seq(1L, 2L).toDF("x"), "b" -> Seq(9L).toDF("z"))
    val op = SemiJoin(Plan.scan(cq, "a"), Plan.scan(cq, "b"))
    assert(Executor.materialize(cq, op, instNonEmpty).count() == 2)
    val instEmpty = instNonEmpty + ("b" -> Seq.empty[Long].toDF("z"))
    assert(Executor.materialize(cq, op, instEmpty).count() == 0)
  }

  test("join multiplies count annotations through a projection") {
    // a has two rows with y=2; π_{y} folds them to annotation 2.
    val cq = CQ("c2", Vector(Atom("a", Vector("x", "y")), Atom("b", Vector("y"))),
      Vector("y"), Fixtures.count())
    val inst = Map(
      "a" -> df2(("x", "y"), (1L, 2L), (5L, 2L)),
      "b" -> Seq(2L, 2L, 3L).toDF("y"))
    val proj = Plan.project(cq, Plan.scan(cq, "a"), Vector("y"))
    val j = Join(Plan.scan(cq, "b"), proj)
    val plan = Plan(cq, Plan.result(cq, j))
    val res = Executor.run(plan, inst)
    // y=2: two b-rows × folded annotation 2 = 4 join results
    assert(res.df.collect().toSet == Set(Row(2L, 4L)))
    res.cleanup()
  }

  test("cross join (no shared attrs) multiplies cardinalities") {
    val cq = CQ("x", Vector(Atom("a", Vector("x")), Atom("b", Vector("z"))),
      Vector.empty, Fixtures.count())
    val inst = Map("a" -> Seq(1L, 2L).toDF("x"), "b" -> Seq(8L, 9L, 10L).toDF("z"))
    val plan = YannakakisPlus.plan(cq)
    val res = Executor.run(plan, inst)
    assert(res.df.collect()(0).getLong(0) == 6L)
    res.cleanup()
  }

  test("aggregating projection with no annotations deduplicates") {
    val cq = CQ("d", Vector(Atom("a", Vector("x", "y"))), Vector("x"))
    val inst = Map("a" -> df2(("x", "y"), (1L, 1L), (1L, 2L), (2L, 1L)))
    val p = Plan.project(cq, Plan.scan(cq, "a"), Vector("x"))
    assert(Executor.materialize(cq, p, inst).count() == 2)
  }

  test("prune keeps duplicates (no shuffle dedup)") {
    val cq = CQ("d", Vector(Atom("a", Vector("x", "y"))), Vector("x"))
    val inst = Map("a" -> df2(("x", "y"), (1L, 1L), (1L, 2L)))
    val p = Plan.prune(Plan.scan(cq, "a"), Vector("x"))
    assert(Executor.materialize(cq, p, inst).count() == 2)
  }

  test("absent sum-like annotation materializes as group count") {
    val cq = cqCnt
    val inst = Map(
      "a" -> df2(("x", "y"), (1L, 2L), (1L, 2L), (1L, 3L)),
      "b" -> df2(("y", "z"), (2L, 1L)))
    // explicit node: Plan.project would skip the identity-width π
    val p = Project(Plan.scan(cq, "a"), Vector("x", "y"), dedupe = true,
      cq.sumLikeAnnots)
    val rows = Executor.materialize(cq, p, inst)
      .select("x", "y", "__v0").collect()
    val m = rows.map(r => (r.getLong(0), r.getLong(1)) -> r.getLong(2)).toMap
    assert(m((1L, 2L)) == 2L && m((1L, 3L)) == 1L)
  }

  test("min annotation survives duplicate join paths (idempotence)") {
    val cq = CQ("m", Vector(Atom("a", Vector("x", "v")), Atom("b", Vector("x"))),
      Vector("x"),
      Vector(AggSpec("mn", Semiring.MinSum, Map("a" -> "v"))))
    val inst = Map(
      "a" -> df2(("x", "v"), (1L, 5L), (1L, 3L)),
      "b" -> Seq(1L, 1L, 1L).toDF("x")) // triple multiplicity
    val res = Executor.run(YannakakisPlus.plan(cq), inst)
    assert(res.df.collect().toSet == Set(Row(1L, 3.0)))
    res.cleanup()
  }

  test("finish aliases annotations to the aggregate names") {
    val inst = Map(
      "a" -> df2(("x", "y"), (1L, 2L)), "b" -> df2(("y", "z"), (2L, 3L)))
    val res = Executor.run(YannakakisPlus.plan(cqCnt), inst)
    assert(res.df.columns.toSeq == Seq("x", "cnt"))
    res.cleanup()
  }

  test("runNative registers views and evaluates the flat SQL") {
    val inst = Map(
      "a" -> df2(("x", "y"), (1L, 2L), (2L, 2L)), "b" -> df2(("y", "z"), (2L, 3L)))
    val got = Executor.runNative(cqCnt, inst).collect().toSet
    assert(got == Set(Row(1L, 1L), Row(2L, 1L)))
  }

  test("atoms bound to one DataFrame stay distinct without the analyzer") {
    // e1 and e2 are the very same DataFrame (a self-join on both columns)
    val cq = CQ("self", Vector(
      Atom("e1", Vector("a", "b")), Atom("e2", Vector("a", "b")),
      Atom("e3", Vector("b", "c"))), Vector("a"), Fixtures.count())
    val edges = df2(("a", "b"), (1L, 2L), (2L, 3L), (3L, 1L), (2L, 1L), (1L, 3L))
    val inst = Map("e1" -> edges, "e2" -> edges, "e3" -> edges.toDF("b", "c"))
    val res = Executor.run(YannakakisPlus.plan(cq), inst)
    // the lowered plan as handed to Spark, before analysis
    res.df.queryExecution.logical.foreach {
      case j: org.apache.spark.sql.catalyst.plans.logical.Join =>
        assert(j.left.outputSet.intersect(j.right.outputSet).isEmpty, s"shared ids in\n$j")
      case _ =>
    }
    repro.Oracle.assertEquivalent(res.df, cq, inst)
    res.cleanup()
  }

  test("shared operators are persisted exactly once") {
    val cq = cqCnt.copy(output = Vector("y"))
    val shared = Plan.project(cq, Plan.scan(cq, "a"), Vector("y"))
    val plan = Plan(cq, Join(SemiJoin(Plan.scan(cq, "b"), shared), shared))
    val inst = Map(
      "a" -> df2(("x", "y"), (1L, 2L)), "b" -> df2(("y", "z"), (2L, 3L)))
    val res = Executor.run(plan, inst)
    assert(res.persisted.size == 1)
    res.cleanup()
  }

  test("the result reads a shared operator from its cache") {
    val cq = cqCnt.copy(output = Vector("y"))
    val shared = Plan.project(cq, Plan.scan(cq, "a"), Vector("y"))
    val plan = Plan(cq, Join(SemiJoin(Plan.scan(cq, "b"), shared), shared))
    val inst = Map(
      "a" -> df2(("x", "y"), (1L, 2L), (3L, 2L)), "b" -> df2(("y", "z"), (2L, 3L)))
    val res = Executor.run(plan, inst)
    val cached = res.df.queryExecution.withCachedData.collect {
      case r: org.apache.spark.sql.execution.columnar.InMemoryRelation => r
    }
    assert(cached.size == 2, res.df.queryExecution.withCachedData) // both uses of `shared`
    assert(res.df.collect().toSet == Set(Row(2L, 2L)))
    res.cleanup()
  }

  test("a shared aggregating projection is cached in fewer than the shuffle partitions") {
    val cq = cqCnt.copy(output = Vector("y"))
    val shared = Plan.project(cq, Plan.scan(cq, "a"), Vector("y")) // its top is a shuffle
    val plan = Plan(cq, Plan.result(cq, Join(SemiJoin(Plan.scan(cq, "b"), shared), shared)))
    val inst = Map(
      "a" -> df2(("x", "y"), (1L, 2L), (3L, 2L), (4L, 5L), (6L, 7L)),
      "b" -> df2(("y", "z"), (2L, 3L), (5L, 1L), (2L, 4L)))
    val res = Executor.run(plan, inst)
    try {
      repro.Oracle.assertEquivalent(res.df, cq, inst)
      val builders = res.persisted.flatMap(_.queryExecution.withCachedData.collect {
        case r: org.apache.spark.sql.execution.columnar.InMemoryRelation => r.cacheBuilder
      })
      assert(builders.size == 1 && builders.head.isCachedColumnBuffersLoaded)
      val shufflePartitions = spark.conf.get("spark.sql.shuffle.partitions").toInt
      val cachedPartitions = builders.head.cachedColumnBuffers.getNumPartitions
      assert(cachedPartitions < shufflePartitions)
    } finally res.cleanup()
  }

  test("run leaves canChangeCachedPlanOutputPartitioning as the caller set it, also when it throws") {
    val key = "spark.sql.optimizer.canChangeCachedPlanOutputPartitioning"
    def setting = spark.conf.getAll.get(key)
    val cq = cqCnt.copy(output = Vector("y"))
    val shared = Plan.project(cq, Plan.scan(cq, "a"), Vector("y"))
    val plan = Plan(cq, Join(SemiJoin(Plan.scan(cq, "b"), shared), shared))
    val inst = Map(
      "a" -> df2(("x", "y"), (1L, 2L)), "b" -> df2(("y", "z"), (2L, 3L)))
    // Lowering the shared join throws: a single-source annotation on both sides.
    val minCq = cq.copy(aggs = Vector(AggSpec("m", Semiring.MinString, Map("a" -> "x", "b" -> "z"))))
    val minShared = Join(Plan.scan(minCq, "a"), Plan.scan(minCq, "b"))
    val failing = Plan(minCq, SemiJoin(minShared, minShared))
    try {
      for (prior <- Seq(None, Some("true"), Some("false"))) {
        prior.fold(spark.conf.unset(key))(spark.conf.set(key, _))
        Executor.run(plan, inst).cleanup()
        assert(setting == prior, "after a run")
        intercept[IllegalArgumentException](Executor.run(plan, inst - "b"))
        assert(setting == prior, "after missing instances")
        intercept[IllegalStateException](Executor.run(failing, inst))
        assert(setting == prior, "after lowering threw")
      }
    } finally spark.conf.unset(key)
  }
}
