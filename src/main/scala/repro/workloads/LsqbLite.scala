package repro.workloads

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core._

/** LSQB-lite: a synthetic LDBC-SNB-like social graph (paper §7.1 runs
  * LSQB at SF30). Nine counting queries over many-to-many relations
  * (knows / likes / hasTag), mixing acyclic paths and stars with cyclic
  * patterns (q4/q5/q8 contain triangles, handled via GHD). q8/q9 are the
  * heaviest — the queries whose native plans blow up in the paper.
  *
  * Scale parameter `sf` multiplies all cardinalities; sf = 1 ≈ 360K total
  * rows.
  */
object LsqbLite {

  final case class Tables(person: DataFrame, city: DataFrame, country: DataFrame,
                          knows: DataFrame, post: DataFrame, tag: DataFrame,
                          hasTag: DataFrame, likes: DataFrame)

  def tables(spark: SparkSession, sf: Double = 1.0, seed: Long = 31): Tables = {
    import spark.implicits._
    def n(base: Long): Long = math.max(1L, (base * sf).toLong)
    val nPerson = n(10000); val nCity = n(200); val nCountry = 25
    val nPost = n(20000); val nTag = n(500)
    val person = spark.range(1, nPerson + 1).toDF("pid").select(
      $"pid", (rand(seed) * nCity + 1).cast(LongType) as "cityid")
    val city = spark.range(1, nCity + 1).toDF("cityid").select(
      $"cityid", ($"cityid" % nCountry) as "countryid")
    val country = spark.range(0, nCountry.toLong).toDF("countryid")
    // knows: zipf-ish many-to-many friendship edges
    val knows = repro.SynthData.zipfKeys(spark, n(120000), nPerson, 1.05, seed + 1)
      .select($"k" as "p1", (rand(seed + 2) * nPerson + 1).cast(LongType) as "p2")
    val post = spark.range(1, nPost + 1).toDF("postid").select(
      $"postid", (rand(seed + 3) * nPerson + 1).cast(LongType) as "creator")
    val tag = spark.range(1, nTag + 1).toDF("tagid")
    val hasTag = spark.range(n(60000)).select(
      (rand(seed + 4) * nPost + 1).cast(LongType) as "postid",
      (pow(rand(seed + 5), 2.0) * nTag + 1).cast(LongType) as "tagid")
    val likes = spark.range(n(150000)).select(
      (rand(seed + 6) * nPerson + 1).cast(LongType) as "pid",
      (pow(rand(seed + 7), 2.0) * nPost + 1).cast(LongType) as "postid")
    Tables(person, city, country, knows, post, tag, hasTag, likes)
  }

  private def cnt = Vector(AggSpec("cnt", Semiring.CountProduct))

  /** All nine queries bound to one table set. */
  def workloads(t: Tables): Map[String, Workload] = {
    import Workload.inst

    // q1: country ← city ← person –knows→ person → city → country (7 atoms)
    val q1 = {
      val cq = CQ("lsqb_q1", Vector(
        Atom("co1", Vector("c1")), Atom("ci1", Vector("ct1", "c1")),
        Atom("p1", Vector("a", "ct1")), Atom("k", Vector("a", "b")),
        Atom("p2", Vector("b", "ct2")), Atom("ci2", Vector("ct2", "c2")),
        Atom("co2", Vector("c2"))), Vector.empty, cnt)
      Workload(cq, Map(
        "co1" -> inst(t.country, "countryid" -> "c1"),
        "ci1" -> inst(t.city, "cityid" -> "ct1", "countryid" -> "c1"),
        "p1" -> inst(t.person, "pid" -> "a", "cityid" -> "ct1"),
        "k" -> inst(t.knows, "p1" -> "a", "p2" -> "b"),
        "p2" -> inst(t.person, "pid" -> "b", "cityid" -> "ct2"),
        "ci2" -> inst(t.city, "cityid" -> "ct2", "countryid" -> "c2"),
        "co2" -> inst(t.country, "countryid" -> "c2")),
        cfg = RuleConfig.default.copy(
          uniqueKeys = Map("co1" -> Set(Set("c1")), "co2" -> Set(Set("c2")),
            "ci1" -> Set(Set("ct1")), "ci2" -> Set(Set("ct2")),
            "p1" -> Set(Set("a")), "p2" -> Set(Set("b"))),
          refIntegrity = Set(("ci1", "co1"), ("ci2", "co2"), ("p1", "ci1"),
            ("p2", "ci2"), ("k", "p1"), ("k", "p2"))))
    }

    // q2: knows → likes → hasTag path (3 many-to-many hops)
    val q2 = {
      val cq = CQ("lsqb_q2", Vector(
        Atom("k", Vector("a", "b")), Atom("l", Vector("b", "m")),
        Atom("ht", Vector("m", "tg"))), Vector.empty, cnt)
      Workload(cq, Map(
        "k" -> inst(t.knows, "p1" -> "a", "p2" -> "b"),
        "l" -> inst(t.likes, "pid" -> "b", "postid" -> "m"),
        "ht" -> inst(t.hasTag, "postid" -> "m", "tagid" -> "tg")))
    }

    // q3: post → creator → city, counted per country
    val q3 = {
      val cq = CQ("lsqb_q3", Vector(
        Atom("po", Vector("m", "a")), Atom("p", Vector("a", "ct")),
        Atom("ci", Vector("ct", "c"))), Vector("c"), cnt)
      Workload(cq, Map(
        "po" -> inst(t.post, "postid" -> "m", "creator" -> "a"),
        "p" -> inst(t.person, "pid" -> "a", "cityid" -> "ct"),
        "ci" -> inst(t.city, "cityid" -> "ct", "countryid" -> "c")),
        cfg = RuleConfig.default.copy(
          uniqueKeys = Map("p" -> Set(Set("a")), "ci" -> Set(Set("ct"))),
          refIntegrity = Set(("po", "p"), ("p", "ci"))))
    }

    // q4: knows-triangle (cyclic → GHD)
    val q4 = {
      val cq = CQ("lsqb_q4", Vector(
        Atom("k1", Vector("a", "b")), Atom("k2", Vector("b", "c")),
        Atom("k3", Vector("c", "a"))), Vector.empty, cnt)
      val k = inst(t.knows, "p1" -> "a", "p2" -> "b")
      Workload(cq, Map(
        "k1" -> k,
        "k2" -> inst(t.knows, "p1" -> "b", "p2" -> "c"),
        "k3" -> inst(t.knows, "p1" -> "c", "p2" -> "a")))
    }

    // q5: triangle with a likes tail (cyclic)
    val q5 = {
      val cq = CQ("lsqb_q5", Vector(
        Atom("k1", Vector("a", "b")), Atom("k2", Vector("b", "c")),
        Atom("k3", Vector("c", "a")), Atom("l", Vector("a", "m"))),
        Vector.empty, cnt)
      Workload(cq, Map(
        "k1" -> inst(t.knows, "p1" -> "a", "p2" -> "b"),
        "k2" -> inst(t.knows, "p1" -> "b", "p2" -> "c"),
        "k3" -> inst(t.knows, "p1" -> "c", "p2" -> "a"),
        "l" -> inst(t.likes, "pid" -> "a", "postid" -> "m")))
    }

    // q6: star on person: knows + likes + city
    val q6 = {
      val cq = CQ("lsqb_q6", Vector(
        Atom("p", Vector("a", "ct")), Atom("k", Vector("a", "b")),
        Atom("l", Vector("a", "m"))), Vector.empty, cnt)
      Workload(cq, Map(
        "p" -> inst(t.person, "pid" -> "a", "cityid" -> "ct"),
        "k" -> inst(t.knows, "p1" -> "a", "p2" -> "b"),
        "l" -> inst(t.likes, "pid" -> "a", "postid" -> "m")),
        cfg = RuleConfig.default.copy(
          uniqueKeys = Map("p" -> Set(Set("a"))),
          refIntegrity = Set(("k", "p"), ("l", "p"))))
    }

    // q7: knows path of length 4 (pure many-to-many)
    val q7 = {
      val cq = CQ("lsqb_q7", Vector(
        Atom("k1", Vector("a", "b")), Atom("k2", Vector("b", "c")),
        Atom("k3", Vector("c", "d")), Atom("k4", Vector("d", "e"))),
        Vector.empty, cnt)
      Workload(cq, Map(
        "k1" -> inst(t.knows, "p1" -> "a", "p2" -> "b"),
        "k2" -> inst(t.knows, "p1" -> "b", "p2" -> "c"),
        "k3" -> inst(t.knows, "p1" -> "c", "p2" -> "d"),
        "k4" -> inst(t.knows, "p1" -> "d", "p2" -> "e")))
    }

    // q8: likes(p,m), knows(p,q), likes(q,m) — cyclic triangle over
    // person/person/post, plus hasTag tail (the paper's heavy query)
    val q8 = {
      val cq = CQ("lsqb_q8", Vector(
        Atom("l1", Vector("a", "m")), Atom("k", Vector("a", "b")),
        Atom("l2", Vector("b", "m")), Atom("ht", Vector("m", "tg"))),
        Vector.empty, cnt)
      Workload(cq, Map(
        "l1" -> inst(t.likes, "pid" -> "a", "postid" -> "m"),
        "k" -> inst(t.knows, "p1" -> "a", "p2" -> "b"),
        "l2" -> inst(t.likes, "pid" -> "b", "postid" -> "m"),
        "ht" -> inst(t.hasTag, "postid" -> "m", "tagid" -> "tg")))
    }

    // q9: city → person → knows → person → likes → post → hasTag → tag
    val q9 = {
      val cq = CQ("lsqb_q9", Vector(
        Atom("ci", Vector("ct", "c")), Atom("p1", Vector("a", "ct")),
        Atom("k", Vector("a", "b")), Atom("l", Vector("b", "m")),
        Atom("ht", Vector("m", "tg")), Atom("tg_", Vector("tg"))),
        Vector.empty, cnt)
      Workload(cq, Map(
        "ci" -> inst(t.city, "cityid" -> "ct", "countryid" -> "c"),
        "p1" -> inst(t.person, "pid" -> "a", "cityid" -> "ct"),
        "k" -> inst(t.knows, "p1" -> "a", "p2" -> "b"),
        "l" -> inst(t.likes, "pid" -> "b", "postid" -> "m"),
        "ht" -> inst(t.hasTag, "postid" -> "m", "tagid" -> "tg"),
        "tg_" -> inst(t.tag, "tagid" -> "tg")),
        cfg = RuleConfig.default.copy(
          uniqueKeys = Map("p1" -> Set(Set("a")), "ci" -> Set(Set("ct")),
            "tg_" -> Set(Set("tg"))),
          refIntegrity = Set(("p1", "ci"), ("k", "p1"), ("ht", "tg_"))))
    }

    Map("q1" -> q1, "q2" -> q2, "q3" -> q3, "q4" -> q4, "q5" -> q5,
      "q6" -> q6, "q7" -> q7, "q8" -> q8, "q9" -> q9)
  }
}
