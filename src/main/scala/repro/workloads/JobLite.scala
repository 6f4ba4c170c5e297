package repro.workloads

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core._

/** JOB-lite: a synthetic IMDB-like schema with 12 JOB-style queries
  * (analogs of 1a, 2b, 4a, 6a, 8b, 10c, 11d, 16b, 17c, 21a, 27b, 27c).
  * JOB queries are acyclic joins of `title` with dimension and
  * many-to-many link tables, aggregated with `MIN(...)` and no GROUP BY.
  * The paper scales IMDB 10–100×; here the `mult` parameter scales the
  * link tables, which is what turns the joins many-to-many.
  *
  * The CEB benchmark uses the same IMDB schema; its 5 sampled queries are
  * covered by this workload (see DESIGN.md).
  *
  * Logical attribute conventions: `mid` (movie), `cid` (company), `ctid`
  * (company type), `itid` (info type), `kid` (keyword), `pid` (person).
  */
object JobLite {

  final case class Tables(title: DataFrame, movieCompanies: DataFrame,
                          companyName: DataFrame, companyType: DataFrame,
                          infoType: DataFrame, movieInfoIdx: DataFrame,
                          movieKeyword: DataFrame, keyword: DataFrame,
                          castInfo: DataFrame, name: DataFrame)

  /** `mult` scales the link tables (the paper's 10-100x enlargement);
    * `dims` scales the entity tables (tests shrink them so the oracle
    * round-trips stay fast).
    */
  def tables(spark: SparkSession, mult: Double = 1.0, dims: Double = 1.0,
             seed: Long = 53): Tables = {
    def m(base: Long): Long = math.max(1L, (base * mult).toLong)
    def dm(base: Long): Long = math.max(4L, (base * dims).toLong)
    val nTitle = dm(40000L)
    val nCompany = dm(4000L)
    val nKeyword = dm(5000L)
    val nName = dm(30000L)
    val title = spark.range(1, nTitle + 1).toDF("id").select(
      col("id"),
      concat(lit("movie_"), format_string("%07d", col("id"))) as "title",
      (rand(seed) * 6 + 1).cast(IntegerType) as "kind_id",
      (rand(seed + 1) * 120 + 1900).cast(IntegerType) as "production_year")
    val companyName = spark.range(1, nCompany + 1).toDF("id").select(
      col("id"),
      concat(lit("company_"), format_string("%05d", col("id"))) as "name",
      element_at(array(lit("us"), lit("de"), lit("jp"), lit("uk"), lit("fr")),
        (rand(seed + 2) * 5 + 1).cast("int")) as "country_code")
    val companyType = spark.range(1, 5).toDF("id").select(
      col("id"),
      element_at(array(lit("production companies"), lit("distributors"),
        lit("special effects companies"), lit("miscellaneous companies")),
        col("id").cast("int")) as "kind")
    val infoType = spark.range(1, 21).toDF("id").select(
      col("id"), concat(lit("info_"), format_string("%02d", col("id"))) as "info")
    val movieCompanies = spark.range(m(80000)).select(
      (rand(seed + 3) * nTitle + 1).cast(LongType) as "movie_id",
      (pow(rand(seed + 4), 2.0) * nCompany + 1).cast(LongType) as "company_id",
      (rand(seed + 5) * 4 + 1).cast(LongType) as "company_type_id",
      concat(lit("note_"),
        format_string("%04d", (rand(seed + 6) * 5000).cast(IntegerType))) as "note")
    val movieInfoIdx = spark.range(m(60000)).select(
      (rand(seed + 7) * nTitle + 1).cast(LongType) as "movie_id",
      (rand(seed + 8) * 20 + 1).cast(LongType) as "info_type_id",
      format_string("%d", (rand(seed + 9) * 10 + 1).cast(IntegerType)) as "info")
    val movieKeyword = spark.range(m(120000)).select(
      (rand(seed + 10) * nTitle + 1).cast(LongType) as "movie_id",
      (pow(rand(seed + 11), 2.0) * nKeyword + 1).cast(LongType) as "keyword_id")
    val keyword = spark.range(1, nKeyword + 1).toDF("id").select(
      col("id"), concat(lit("kw_"), format_string("%06d", col("id"))) as "keyword")
    val castInfo = spark.range(m(200000)).select(
      (rand(seed + 12) * nTitle + 1).cast(LongType) as "movie_id",
      (pow(rand(seed + 13), 1.5) * nName + 1).cast(LongType) as "person_id",
      (rand(seed + 14) * 10 + 1).cast(IntegerType) as "role_id")
    val name = spark.range(1, nName + 1).toDF("id").select(
      col("id"), concat(lit("person_"), format_string("%07d", col("id"))) as "name")
    Tables(title, movieCompanies, companyName, companyType, infoType,
      movieInfoIdx, movieKeyword, keyword, castInfo, name)
  }

  // ------------------------------------------------------------- DSL ---

  private def minS(alias: String, atom: String, attr: String) =
    AggSpec(alias, Semiring.MinString, Map(atom -> attr))
  private def minN(alias: String, atom: String, attr: String) =
    AggSpec(alias, Semiring.MinSum, Map(atom -> attr))

  /** One JOB-lite query under construction. */
  private final class Q(val name: String) {
    val atoms = Vector.newBuilder[Atom]
    val inst = Map.newBuilder[String, DataFrame]
    var aggs = Vector.empty[AggSpec]
    var keys = Map.empty[String, Set[Set[String]]]
    var ri = Set.empty[(String, String)]
    var predicates = 0

    def atom(id: String, df: DataFrame, filter: Option[Column],
             key: Option[Set[String]], renames: (String, String)*): this.type = {
      atoms += Atom(id, renames.map(_._2).toVector)
      inst += id -> Workload.inst(filter.map(df.filter).getOrElse(df), renames: _*)
      if (filter.isDefined) predicates += 1
      key.foreach(k => keys += id -> Set(k))
      this
    }

    def integrity(pairs: (String, String)*): this.type = { ri ++= pairs; this }

    def build(aggList: AggSpec*): (String, Workload) = {
      val cq = CQ(s"job_$name", atoms.result(), Vector.empty, aggList.toVector)
      name -> Workload(cq, inst.result(),
        RuleConfig.default.copy(uniqueKeys = keys, refIntegrity = ri),
        predicates = predicates)
    }
  }

  /** The 12 bound queries, in benchmark order. */
  def workloads(t: Tables): Vector[(String, Workload)] = {
    def title(q: Q, filter: Option[Column] = None): Q =
      q.atom("t", t.title, filter, Some(Set("mid")),
        "id" -> "mid", "title" -> "t_title", "production_year" -> "t_year")
    def mc(q: Q): Q =
      q.atom("mc", t.movieCompanies, None, None, "movie_id" -> "mid",
        "company_id" -> "cid", "company_type_id" -> "ctid", "note" -> "note")
    def mi(q: Q): Q =
      q.atom("mi", t.movieInfoIdx, None, None,
        "movie_id" -> "mid", "info_type_id" -> "itid", "info" -> "mi_info")
    def mk(q: Q): Q =
      q.atom("mk", t.movieKeyword, None, None, "movie_id" -> "mid", "keyword_id" -> "kid")
    def ci(q: Q, filter: Option[Column] = None): Q =
      q.atom("ci", t.castInfo, filter, None, "movie_id" -> "mid", "person_id" -> "pid")
    def cn(q: Q, filter: Option[Column]): Q =
      q.atom("cn", t.companyName, filter, Some(Set("cid")),
        "id" -> "cid", "name" -> "cn_name")
    def ct(q: Q, filter: Option[Column]): Q =
      q.atom("ct", t.companyType, filter, Some(Set("ctid")), "id" -> "ctid")
    def it(q: Q, filter: Option[Column]): Q =
      q.atom("it", t.infoType, filter, Some(Set("itid")), "id" -> "itid")
    def kw(q: Q, filter: Option[Column]): Q =
      q.atom("k", t.keyword, filter, Some(Set("kid")),
        "id" -> "kid", "keyword" -> "k_keyword")
    def nm(q: Q, filter: Option[Column] = None): Q =
      q.atom("n", t.name, filter, Some(Set("pid")), "id" -> "pid", "name" -> "n_name")

    val q1a = {
      val q = new Q("1a")
      ct(q, Some(col("kind") === "production companies"))
      it(q, Some(col("info") === "info_05"))
      mc(q); mi(q); title(q)
      q.integrity(("mc", "t"), ("mi", "t"))
        .build(minS("mc_note", "mc", "note"), minS("min_title", "t", "t_title"),
          minN("min_year", "t", "t_year"))
    }

    val q2b = {
      val q = new Q("2b")
      cn(q, Some(col("country_code") === "de"))
      kw(q, Some(col("keyword").startsWith("kw_0001")))
      mc(q); mk(q); title(q)
      q.integrity(("mc", "t"), ("mk", "t"))
        .build(minS("min_title", "t", "t_title"))
    }

    val q4a = {
      val q = new Q("4a")
      it(q, Some(col("info") === "info_03"))
      kw(q, Some(col("keyword").startsWith("kw_00")))
      mi(q); mk(q); title(q)
      q.integrity(("mi", "t"), ("mk", "t"))
        .build(minS("min_info", "mi", "mi_info"), minS("min_title", "t", "t_title"))
    }

    val q6a = {
      val q = new Q("6a")
      ci(q); kw(q, Some(col("keyword").startsWith("kw_0001")))
      mk(q); nm(q); title(q)
      q.integrity(("ci", "t"), ("mk", "t"), ("ci", "n"))
        .build(minS("min_kw", "k", "k_keyword"), minS("min_name", "n", "n_name"),
          minS("min_title", "t", "t_title"))
    }

    val q8b = {
      val q = new Q("8b")
      ci(q); mc(q)
      cn(q, Some(col("country_code") === "jp"))
      nm(q, Some(col("name").startsWith("person_000")))
      title(q, Some(col("production_year").between(1990, 2010)))
      // no (·, t) integrity: title is filtered here
        .build(minS("min_name", "n", "n_name"), minS("min_title", "t", "t_title"))
    }

    val q10c = {
      val q = new Q("10c")
      ci(q, Some(col("role_id") <= 3))
      cn(q, Some(col("country_code") === "us"))
      mc(q); title(q); nm(q)
      q.integrity(("mc", "t"), ("ci", "t"), ("ci", "n"))
        .build(minS("min_title", "t", "t_title"), minS("min_name", "n", "n_name"))
    }

    val q11d = {
      val q = new Q("11d")
      cn(q, None); ct(q, Some(col("kind") === "distributors"))
      kw(q, Some(col("keyword").startsWith("kw_0")))
      mc(q); mk(q); title(q)
      q.integrity(("mc", "t"), ("mk", "t"), ("mc", "cn"))
        .build(minS("min_cn", "cn", "cn_name"), minS("min_title", "t", "t_title"))
    }

    val q16b = {
      val q = new Q("16b")
      cn(q, None); ci(q)
      kw(q, Some(col("keyword").startsWith("kw_0002")))
      mc(q); mk(q); nm(q); title(q)
      q.integrity(("mc", "t"), ("mk", "t"), ("ci", "t"), ("ci", "n"), ("mc", "cn"))
        .build(minS("min_name", "n", "n_name"), minS("min_title", "t", "t_title"))
    }

    val q17c = {
      val q = new Q("17c")
      ci(q); kw(q, Some(col("keyword").startsWith("kw_000")))
      mk(q); nm(q, Some(col("name").startsWith("person_000")))
      title(q)
      q.integrity(("ci", "t"), ("mk", "t"))
        .build(minS("min_name", "n", "n_name"))
    }

    val q21a = {
      val q = new Q("21a")
      cn(q, Some(col("country_code") =!= "us"))
      ct(q, Some(col("kind") === "production companies"))
      kw(q, Some(col("keyword").startsWith("kw_0003")))
      mc(q); mk(q)
      title(q, Some(col("production_year") >= 1980))
      q // no (·, t) integrity: title is filtered here
        .build(minS("min_cn", "cn", "cn_name"), minS("min_title", "t", "t_title"))
    }

    val q27b = {
      val q = new Q("27b")
      ct(q, Some(col("kind") === "production companies"))
      cn(q, Some(col("country_code") === "de"))
      it(q, Some(col("info") === "info_10"))
      kw(q, Some(col("keyword").startsWith("kw_00005")))
      mc(q); mi(q); mk(q)
      title(q, Some(col("production_year") >= 1950))
      q // no (·, t) integrity: title is filtered here
        .build(minS("min_cn", "cn", "cn_name"), minS("min_title", "t", "t_title"),
          minN("min_year", "t", "t_year"))
    }

    val q27c = {
      val q = new Q("27c")
      ct(q, Some(col("kind") === "production companies"))
      cn(q, Some(col("country_code") === "us"))
      it(q, Some(col("info") === "info_02"))
      kw(q, Some(col("keyword").startsWith("kw_0001")))
      ci(q); mc(q); mi(q); mk(q)
      title(q, Some(col("production_year") >= 1950))
      q // no (·, t) integrity: title is filtered here
        .build(minS("min_cn", "cn", "cn_name"), minS("min_title", "t", "t_title"))
    }

    Vector(q1a, q2b, q4a, q6a, q8b, q10c, q11d, q16b, q17c, q21a, q27b, q27c)
  }
}
