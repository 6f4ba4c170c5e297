package repro.workloads

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._

/** The Sub-Graph Pattern Benchmark (paper §7.1, Appendix C / Table 6):
  * 16 queries over graph edge relations — lines of length 3–5, a dumbbell,
  * and a mix of full-enumeration / aggregation / projection outputs, half
  * free-connex and half not.
  *
  * The SNAP graphs are replaced by [[SynthData.edges]] (zipf-skewed random
  * graphs): SGPB queries are self-joins of a single edge relation, and the
  * skewed many-to-many joins are what stress native plans. Graph "A"
  * stands in for the small datasets (bitcoin/epinions) and "B" for the
  * larger ones (dblp/google/wiki).
  */
object Sgpb {

  final case class SgpbQuery(name: String, shape: String, graph: String,
                             build: DataFrame => Workload)

  /** Edge relation renamed to a path segment (x_i → x_{i+1}). */
  private def seg(e: DataFrame, i: Int): DataFrame =
    e.select(col("src").as(s"x$i"), col("dst").as(s"x${i + 1}"))

  private def lineAtoms(k: Int): Vector[Atom] =
    (1 to k).map(i => Atom(s"e$i", Vector(s"x$i", s"x${i + 1}"))).toVector

  private def lineInst(e: DataFrame, k: Int): CQ.Instances =
    (1 to k).map(i => s"e$i" -> seg(e, i)).toMap

  private def count(alias: String = "cnt") =
    Vector(AggSpec(alias, Semiring.CountProduct))

  /** The 16 SGPB queries (Table 6 rows). */
  val queries: Vector[SgpbQuery] = Vector(
    SgpbQuery("q1a", "line-3", "A", { e =>
      val cq = CQ("sgpb_q1a", lineAtoms(3), (1 to 4).map(i => s"x$i").toVector,
        Vector.empty, distinctOutput = false)
      val inst = lineInst(e, 3) + ("e1" -> seg(e, 1).filter(col("x1") <= 40))
      Workload(cq, inst, predicates = 1)
    }),
    SgpbQuery("q1b", "line-3", "A", { e =>
      val cq = CQ("sgpb_q1b", lineAtoms(3), Vector("x1"), count())
      Workload(cq, lineInst(e, 3))
    }),
    SgpbQuery("q1c", "line-3", "A", { e =>
      val cq = CQ("sgpb_q1c", lineAtoms(3), Vector("x2", "x3"))
      Workload(cq, lineInst(e, 3))
    }),
    SgpbQuery("q2a", "dumbbell", "A", { e =>
      val cq = CQ("sgpb_q2a", dumbbellAtoms,
        (1 to 6).map(i => s"x$i").toVector, Vector.empty, distinctOutput = false)
      val inst = dumbbellInst(e) + ("r4" ->
        e.select(col("src").as("x3"), col("dst").as("x4")).filter(col("x3") <= 40))
      Workload(cq, inst, predicates = 1)
    }),
    SgpbQuery("q2b", "dumbbell", "A", { e =>
      val cq = CQ("sgpb_q2b", dumbbellAtoms, Vector.empty, count())
      Workload(cq, dumbbellInst(e))
    }),
    SgpbQuery("q3a", "line-3", "B", { e =>
      val cq = CQ("sgpb_q3a", lineAtoms(3), (1 to 4).map(i => s"x$i").toVector,
        Vector.empty, distinctOutput = false)
      val inst = lineInst(e, 3) + ("e2" -> seg(e, 2).filter(col("x2") <= 60))
      Workload(cq, inst, predicates = 1)
    }),
    SgpbQuery("q3b", "line-3", "B", { e =>
      val cq = CQ("sgpb_q3b", lineAtoms(3), Vector("x4"), count())
      Workload(cq, lineInst(e, 3))
    }),
    SgpbQuery("q3c", "line-3", "B", { e =>
      val cq = CQ("sgpb_q3c", lineAtoms(3), Vector("x1", "x2"))
      Workload(cq, lineInst(e, 3))
    }),
    SgpbQuery("q4a", "line-5", "A", { e =>
      val cq = CQ("sgpb_q4a", lineAtoms(5), Vector("x1", "x2"))
      Workload(cq, lineInst(e, 5))
    }),
    SgpbQuery("q4b", "line-5", "A", { e =>
      val cq = CQ("sgpb_q4b", lineAtoms(5), Vector("x1"), count())
      Workload(cq, lineInst(e, 5))
    }),
    SgpbQuery("q5a", "line-5", "B", { e =>
      val cq = CQ("sgpb_q5a", lineAtoms(5), Vector("x5", "x6"))
      Workload(cq, lineInst(e, 5))
    }),
    SgpbQuery("q5b", "line-5", "B", { e =>
      val cq = CQ("sgpb_q5b", lineAtoms(5), Vector("x6"), count())
      Workload(cq, lineInst(e, 5))
    }),
    SgpbQuery("q6", "line-3", "A", { e =>
      val cq = CQ("sgpb_q6", lineAtoms(3), Vector("x1", "x4"))
      Workload(cq, lineInst(e, 3))
    }),
    SgpbQuery("q7", "line-4", "A", { e =>
      val cq = CQ("sgpb_q7", lineAtoms(4), Vector("x1", "x5"), count())
      Workload(cq, lineInst(e, 4))
    }),
    SgpbQuery("q8", "line-4", "B", { e =>
      val cq = CQ("sgpb_q8", lineAtoms(4), Vector("x2", "x5"), count())
      Workload(cq, lineInst(e, 4))
    }),
    SgpbQuery("q9", "line-4", "B", { e =>
      val cq = CQ("sgpb_q9", lineAtoms(4), Vector("x1", "x4"), count())
      Workload(cq, lineInst(e, 4))
    }),
  )

  /** Dumbbell (Example 4.1): triangle(x1,x2,x3) — bridge(x3,x4) —
    * triangle(x4,x5,x6). Cyclic; evaluated via GHD.
    */
  val dumbbellAtoms: Vector[Atom] = Vector(
    Atom("r1", Vector("x1", "x2")), Atom("r2", Vector("x2", "x3")),
    Atom("r3", Vector("x3", "x1")), Atom("r4", Vector("x3", "x4")),
    Atom("r5", Vector("x4", "x5")), Atom("r6", Vector("x5", "x6")),
    Atom("r7", Vector("x6", "x4")))

  private def dumbbellInst(e: DataFrame): CQ.Instances = Map(
    "r1" -> e.select(col("src").as("x1"), col("dst").as("x2")),
    "r2" -> e.select(col("src").as("x2"), col("dst").as("x3")),
    "r3" -> e.select(col("src").as("x3"), col("dst").as("x1")),
    "r4" -> e.select(col("src").as("x3"), col("dst").as("x4")),
    "r5" -> e.select(col("src").as("x4"), col("dst").as("x5")),
    "r6" -> e.select(col("src").as("x5"), col("dst").as("x6")),
    "r7" -> e.select(col("src").as("x6"), col("dst").as("x4")))

  /** Build a query's workload at the given edge scale. */
  def workload(spark: SparkSession, name: String, nEdges: Long = 20000,
               nVertices: Long = 2000): Workload = {
    val q = queries.find(_.name == name).getOrElse(
      throw new NoSuchElementException(s"no SGPB query $name"))
    val e = graph(spark, q.graph, nEdges, nVertices)
    q.build(e)
  }

  def graph(spark: SparkSession, which: String, nEdges: Long, nVertices: Long): DataFrame =
    which match {
      case "A" => SynthData.edges(spark, nEdges, nVertices, alpha = 1.05, seed = 11)
      case _   => SynthData.edges(spark, nEdges * 2, nVertices * 3, alpha = 1.15, seed = 23)
    }
}
