package repro.workloads

import repro.{Oracle, SparkSpec}
import repro.core.Hypergraph
import repro.ghd.GHD

/** JOB-lite: oracle correctness of the 12 queries under all methods plus
  * structural sanity (acyclic stars, declared facts hold on the data).
  */
class JobSpec extends SparkSpec {

  private lazy val wl = JobLite.workloads(JobLite.tables(spark, mult = 0.1, dims = 0.1))

  for ((name, _) <- JobLite.workloads(JobLite.tables(SparkSpec.shared, mult = 0.1, dims = 0.1));
       m <- Seq(Runner.Native, Runner.Classic, Runner.Plus)) {
    test(s"$name / ${m.label} matches oracle") {
      val w = wl.find(_._1 == name).get._2
      val r = Runner.run(w, m)
      Oracle.assertEquivalent(r.df, w.cq, w.instances)
      r.cleanup()
    }
  }

  test("all JOB-lite queries are acyclic") {
    wl.foreach { case (n, w) => assert(Hypergraph.isAcyclic(w.cq), n) }
  }

  test("all JOB-lite queries are free-connex (empty output)") {
    wl.foreach { case (n, w) =>
      assert(GHD.isGeneralizedFreeConnex(w.cq), n)
    }
  }

  test("declared referential integrity holds on the generated data") {
    for ((name, w) <- wl; (a, b) <- w.cfg.refIntegrity) {
      val l = w.instances(a); val r = w.instances(b)
      val common = l.columns.toSet & r.columns.toSet
      val dangling = l.join(r, common.toSeq, "left_anti").count()
      assert(dangling == 0, s"$name: $a ⋉ $b drops $dangling rows")
    }
  }

  test("declared unique keys hold on the generated data") {
    for ((name, w) <- wl; (atom, keys) <- w.cfg.uniqueKeys; k <- keys) {
      val df = w.instances(atom)
      assert(df.select(k.toSeq.map(org.apache.spark.sql.functions.col): _*)
        .distinct().count() == df.count(), s"$name/$atom key $k")
    }
  }
}
