package repro.duck

import java.sql.{Connection, DriverManager, ResultSet, Statement}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types._
import repro.core.{CQ, Plan, SqlGen}

/** Executes queries on an in-process DuckDB — the second engine backend
  * (paper §6 supports DuckDB/PostgreSQL/SparkSQL/AnalyticDB; here DuckDB
  * stands in for the single-node analytical engines). Instances are
  * loaded as *typed* tables. [[repro.Oracle]] loads and reads through it
  * too.
  */
final class DuckRunner extends AutoCloseable {
  Class.forName("org.duckdb.DuckDBDriver")
  val conn: Connection = DriverManager.getConnection("jdbc:duckdb:")

  private def duckType(dt: DataType): String = dt match {
    case LongType    => "BIGINT"
    case IntegerType => "INTEGER"
    case DoubleType  => "DOUBLE"
    case FloatType   => "DOUBLE"
    case StringType  => "VARCHAR"
    case DateType    => "DATE"
    case BooleanType => "BOOLEAN"
    case d: DecimalType => s"DECIMAL(${d.precision},${d.scale})"
    case other       => throw new IllegalArgumentException(s"unsupported type $other")
  }

  /** Create `name` from the DataFrame's schema and bulk-load its rows —
    * via the native appender when the schema allows (no dates/nulls),
    * falling back to JDBC batches otherwise.
    */
  def load(name: String, df: DataFrame): Unit = {
    val schema = df.schema
    val cols = schema.fields.map(f => s"${f.name} ${duckType(f.dataType)}").mkString(", ")
    withStatement { st =>
      st.execute(s"DROP TABLE IF EXISTS $name")
      st.execute(s"CREATE TABLE $name ($cols)")
    }
    val appendable = schema.fields.forall(f => f.dataType match {
      case LongType | IntegerType | DoubleType | FloatType | StringType | BooleanType => true
      case _ => false
    })
    if (appendable) {
      try { appendLoad(name, df); return }
      catch {
        case _: Exception => withStatement(_.execute(s"DELETE FROM $name"))
      }
    }
    batchLoad(name, df)
  }

  private def appendLoad(name: String, df: DataFrame): Unit = {
    val app = new org.duckdb.DuckDBAppender(
      conn.asInstanceOf[org.duckdb.DuckDBConnection], "main", name)
    try {
      df.toLocalIterator().forEachRemaining { r =>
        app.beginRow()
        r.toSeq.foreach {
          case l: java.lang.Long    => app.append(l.longValue())
          case i: java.lang.Integer => app.append(i.intValue())
          case d: java.lang.Double  => app.append(d.doubleValue())
          case f: java.lang.Float   => app.append(f.doubleValue())
          case b: java.lang.Boolean => app.append(b.booleanValue())
          case s: String            => app.append(s)
          case other => throw new IllegalArgumentException(s"appender: $other")
        }
        app.endRow()
      }
      app.flush()
    } finally app.close()
  }

  private def batchLoad(name: String, df: DataFrame): Unit = {
    val schema = df.schema
    val ps = conn.prepareStatement(
      s"INSERT INTO $name VALUES (${schema.fields.map(_ => "?").mkString(",")})")
    var batched = 0
    df.toLocalIterator().forEachRemaining { r =>
      schema.fields.indices.foreach { i =>
        r.get(i) match {
          case null             => ps.setObject(i + 1, null)
          case d: java.sql.Date => ps.setDate(i + 1, d)
          case x                => ps.setObject(i + 1, x)
        }
      }
      ps.addBatch(); batched += 1
      if (batched % 50000 == 0) ps.executeBatch()
    }
    ps.executeBatch(); ps.close()
  }

  def loadInstances(inst: CQ.Instances): Unit =
    inst.foreach { case (n, df) => load(n, df) }

  /** Run a rewritten plan as its one [[SqlGen]] statement; returns the
    * row count and wall seconds of the execution.
    */
  def runScript(plan: Plan): (Long, Double) = runSql(SqlGen.script(plan).finalQuery)

  /** Run the native flat SQL; returns row count and wall seconds. */
  def runNative(cq: CQ): (Long, Double) = runSql(cq.flatSql(duck = false))

  def runSql(sql: String): (Long, Double) =
    withStatement(st => query(st, sql)(drain(System.nanoTime())))

  /** Fetch full results (small queries only) as canonical string rows
    * (each cell rendered by [[DuckRunner.cell]]).
    */
  def fetch(sql: String): (Vector[String], Vector[Vector[String]]) =
    withStatement(st => query(st, sql) { rs =>
      val meta = rs.getMetaData
      val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel).toVector
      val rows = Vector.newBuilder[Vector[String]]
      while (rs.next())
        rows += (1 to cols.size).map(i => DuckRunner.cell(rs.getObject(i))).toVector
      (cols, rows.result())
    })

  /** Run `body` on a new statement, closed also on failure. */
  private def withStatement[T](body: Statement => T): T = {
    val st = conn.createStatement()
    try body(st)
    finally st.close()
  }

  /** Read the result of the query `sql` with `read`; the result set is
    * closed also on failure.
    */
  private def query[T](st: Statement, sql: String)(read: ResultSet => T): T = {
    val rs = st.executeQuery(sql)
    try read(rs)
    finally rs.close()
  }

  /** Count a result's rows; returns the count and the seconds since `t0`. */
  private def drain(t0: Long)(rs: ResultSet): (Long, Double) = {
    var n = 0L
    while (rs.next()) n += 1
    (n, (System.nanoTime() - t0) / 1e9)
  }

  def close(): Unit = conn.close()
}

object DuckRunner {

  /** The canonical rendering of one result cell, the same for a Spark
    * `Row` value and a DuckDB JDBC value: doubles, floats and decimals
    * rounded to six decimals, `null` as `∅`, anything else by `toString`.
    */
  def cell(v: Any): String = v match {
    case null                     => "∅"
    case d: Double                => sixDecimals(d)
    case f: Float                 => sixDecimals(f.toDouble)
    case bd: java.math.BigDecimal => sixDecimals(bd.doubleValue)
    case x                        => x.toString
  }

  /** `d` rounded to six decimals, unsigned when it rounds to zero: `-1e-9`
    * and `1e-9` agree to six decimals.
    */
  private def sixDecimals(d: Double): String = {
    val s = f"$d%.6f"
    if (s == "-0.000000") "0.000000" else s
  }
}
