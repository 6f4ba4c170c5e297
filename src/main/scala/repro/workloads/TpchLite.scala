package repro.workloads

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._

/** TPC-H-lite (paper §1 and §7.1, SF100 in the paper, SF≤0.1 here):
  * PK–FK joins where the native plans are already near-linear and
  * Yannakakis+ must avoid regressions, plus the §1 "5-copy" variant that
  * breaks the PKs and blows the native plans up.
  *
  * Measures are floored to integral doubles so SUM comparisons against
  * the oracle are exact in floating point.
  */
object TpchLite {

  final case class Tables(lineitem: DataFrame, orders: DataFrame,
                          customer: DataFrame, part: DataFrame,
                          supplier: DataFrame, nation: DataFrame,
                          partsupp: DataFrame)

  def tables(spark: SparkSession, sf: Double = 0.01): Tables = {
    val nSupp = math.max(1L, (10000 * sf).toLong)
    Tables(
      SynthData.lineitem(spark, sf)
        .withColumn("l_quantity", floor(col("l_quantity")).cast("double"))
        .withColumn("l_extendedprice", floor(col("l_extendedprice")).cast("double"))
        // the base generator has no suppkey; derive one in supplier range
        .withColumn("l_suppkey",
          (col("l_partkey") * 7 + col("l_orderkey")) % nSupp + 1),
      SynthData.orders(spark, sf),
      SynthData.customer(spark, sf)
        .withColumn("c_nationkey", col("c_nationkey").cast("long")),
      SynthData.part(spark, sf), SynthData.supplier(spark, sf),
      SynthData.nation(spark), SynthData.partsupp(spark, sf))
  }

  /** The paper's §1 "each PK now has 5 copies" transformation. */
  def withCopies(t: Tables, k: Int): Tables = Tables(
    t.lineitem, SynthData.copies(t.orders, k), SynthData.copies(t.customer, k),
    SynthData.copies(t.part, k), SynthData.copies(t.supplier, k), t.nation,
    t.partsupp)

  /** TPC-H Q9 (simplified as in paper §1): 6-relation acyclic join with
    * SUM(ps_supplycost * l_quantity) grouped by (n_name, orderkey,
    * returnflag). Not free-connex (paper Example 2.3).
    *
    * @param pk declare PK/FK facts — `false` for the 5-copy variant
    */
  def q9(t: Tables, pk: Boolean = true): Workload = {
    import Workload.inst
    val cq = CQ("tpch_q9", Vector(
      Atom("l", Vector("ok", "pk_", "sk", "rf", "qty")),
      Atom("o", Vector("ok")),
      Atom("ps", Vector("pk_", "sk", "cost")),
      Atom("p", Vector("pk_")),
      Atom("s", Vector("sk", "nk")),
      Atom("n", Vector("nk", "nname"))),
      Vector("nname", "ok", "rf"),
      Vector(AggSpec("part_cost", Semiring.SumProduct,
        Map("ps" -> "cost", "l" -> "qty"))))
    val inst0: CQ.Instances = Map(
      "l" -> inst(t.lineitem, "l_orderkey" -> "ok", "l_partkey" -> "pk_",
        "l_suppkey" -> "sk", "l_returnflag" -> "rf", "l_quantity" -> "qty"),
      "o" -> inst(t.orders.filter(col("o_orderdate").between("1994-01-01", "1996-12-31")),
        "o_orderkey" -> "ok"),
      "ps" -> inst(t.partsupp, "ps_partkey" -> "pk_", "ps_suppkey" -> "sk",
        "ps_supplycost" -> "cost"),
      "p" -> inst(t.part.filter(col("p_name").contains("blue")), "p_partkey" -> "pk_"),
      "s" -> inst(t.supplier, "s_suppkey" -> "sk", "s_nationkey" -> "nk"),
      "n" -> inst(t.nation, "n_nationkey" -> "nk", "n_name" -> "nname"))
    val cfg =
      if (!pk) RuleConfig.default
      else RuleConfig.default.copy(
        uniqueKeys = Map("o" -> Set(Set("ok")), "p" -> Set(Set("pk_")),
          "s" -> Set(Set("sk")), "n" -> Set(Set("nk")),
          "ps" -> Set(Set("pk_", "sk"))),
        refIntegrity = Set(("l", "s"), ("s", "n"), ("ps", "s")))
    Workload(cq, inst0, cfg, predicates = 2)
  }

  /** TPC-H Q3-lite: customer(mktsegment) ⋈ orders(date) ⋈ lineitem,
    * SUM(l_extendedprice) per orderkey. Free-connex PK–FK joins.
    */
  def q3(t: Tables): Workload = {
    import Workload.inst
    val cq = CQ("tpch_q3", Vector(
      Atom("c", Vector("ck")),
      Atom("o", Vector("ok", "ck")),
      Atom("l", Vector("ok", "price"))),
      Vector("ok"),
      Vector(AggSpec("revenue", Semiring.SumProduct, Map("l" -> "price"))))
    Workload(cq, Map(
      "c" -> inst(t.customer.filter(col("c_mktsegment") === "BUILDING"),
        "c_custkey" -> "ck"),
      "o" -> inst(t.orders.filter(col("o_orderdate") < "1995-03-15"),
        "o_orderkey" -> "ok", "o_custkey" -> "ck"),
      "l" -> inst(t.lineitem, "l_orderkey" -> "ok", "l_extendedprice" -> "price")),
      RuleConfig.default.copy(
        uniqueKeys = Map("c" -> Set(Set("ck")), "o" -> Set(Set("ok")))),
      predicates = 2)
  }

  /** TPC-H Q10-lite: returned-items revenue per customer. */
  def q10(t: Tables): Workload = {
    import Workload.inst
    val cq = CQ("tpch_q10", Vector(
      Atom("c", Vector("ck", "nk")),
      Atom("o", Vector("ok", "ck")),
      Atom("l", Vector("ok", "price")),
      Atom("n", Vector("nk", "nname"))),
      Vector("ck", "nname"),
      Vector(AggSpec("revenue", Semiring.SumProduct, Map("l" -> "price"))))
    Workload(cq, Map(
      "c" -> inst(t.customer, "c_custkey" -> "ck", "c_nationkey" -> "nk"),
      "o" -> inst(t.orders.filter(col("o_orderdate").between("1993-10-01", "1994-01-01")),
        "o_orderkey" -> "ok", "o_custkey" -> "ck"),
      "l" -> inst(t.lineitem.filter(col("l_returnflag") === "R"),
        "l_orderkey" -> "ok", "l_extendedprice" -> "price"),
      "n" -> inst(t.nation, "n_nationkey" -> "nk", "n_name" -> "nname")),
      RuleConfig.default.copy(
        uniqueKeys = Map("c" -> Set(Set("ck")), "o" -> Set(Set("ok")),
          "n" -> Set(Set("nk"))),
        refIntegrity = Set(("c", "n"), ("o", "c"))),
      predicates = 2)
  }

  /** TPC-H Q19-lite: part ⋈ lineitem with selective part predicates,
    * global SUM — relation-dominated (output ∅).
    */
  def q19(t: Tables): Workload = {
    import Workload.inst
    val cq = CQ("tpch_q19", Vector(
      Atom("l", Vector("pk_", "price")),
      Atom("p", Vector("pk_"))),
      Vector.empty,
      Vector(AggSpec("revenue", Semiring.SumProduct, Map("l" -> "price"))))
    Workload(cq, Map(
      "l" -> inst(t.lineitem.filter(col("l_quantity") <= 11),
        "l_partkey" -> "pk_", "l_extendedprice" -> "price"),
      "p" -> inst(t.part.filter(col("p_size").between(1, 5)), "p_partkey" -> "pk_")),
      RuleConfig.default.copy(uniqueKeys = Map("p" -> Set(Set("pk_")))),
      predicates = 2)
  }

  /** TPC-H Q5-lite (paper Example 5.2): cyclic through the
    * customer-nation-supplier cycle — the cycle-elimination rule's
    * target. Returns revenue per nation.
    */
  def q5(t: Tables): Workload = {
    import Workload.inst
    val cq = CQ("tpch_q5", Vector(
      Atom("c", Vector("ck", "nk")),
      Atom("o", Vector("ok", "ck")),
      Atom("l", Vector("ok", "sk", "price")),
      Atom("s", Vector("sk", "nk")),
      Atom("n", Vector("nk", "nname"))),
      Vector("nname"),
      Vector(AggSpec("revenue", Semiring.SumProduct, Map("l" -> "price"))))
    Workload(cq, Map(
      "c" -> inst(t.customer, "c_custkey" -> "ck", "c_nationkey" -> "nk"),
      "o" -> inst(t.orders.filter(col("o_orderdate") >= "1994-01-01"),
        "o_orderkey" -> "ok", "o_custkey" -> "ck"),
      "l" -> inst(t.lineitem, "l_orderkey" -> "ok", "l_suppkey" -> "sk",
        "l_extendedprice" -> "price"),
      "s" -> inst(t.supplier, "s_suppkey" -> "sk", "s_nationkey" -> "nk"),
      "n" -> inst(t.nation, "n_nationkey" -> "nk", "n_name" -> "nname")),
      RuleConfig.default.copy(
        uniqueKeys = Map("c" -> Set(Set("ck")), "o" -> Set(Set("ok")),
          "s" -> Set(Set("sk")), "n" -> Set(Set("nk")))),
      predicates = 1)
  }
}
