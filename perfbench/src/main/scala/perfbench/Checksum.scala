package perfbench

import scala.util.hashing.MurmurHash3

/** Order-independent checksum of a query result over all of its columns.
  *
  * Columns are put in the order of their lower-cased names, so two engines
  * that emit the same columns in a different order agree. Each value is
  * rendered the way `repro.Oracle` renders it (doubles, floats and
  * decimals rounded to six decimals, `null` as `∅`); each row is hashed to
  * 64 bits and the hashes are summed, so the checksum ignores row order
  * but counts duplicate rows.
  */
final case class Checksum(columns: String, rows: Long, sum: Long) {
  def render: String = f"$rows%d rows, $sum%016x"
}

object Checksum {

  def canon(v: Any): String = v match {
    case null                     => "∅"
    case d: Double                => round6(d)
    case f: Float                 => round6(f.toDouble)
    case bd: java.math.BigDecimal => round6(bd.doubleValue)
    case x                        => x.toString
  }

  // -0.0 and 0.0 are the same value to both engines
  private def round6(d: Double): String = f"${if (d == 0.0) 0.0 else d}%.6f"

  private def hash64(s: String): Long =
    (MurmurHash3.stringHash(s, 0x3c6ef372).toLong << 32) ^
      (MurmurHash3.stringHash(s, 0x1b873593).toLong & 0xffffffffL)

  def of(cols: Seq[String], rows: Iterator[Seq[Any]]): Checksum = {
    val order = cols.map(_.toLowerCase).zipWithIndex.sortBy(_._1)
    var n = 0L
    var sum = 0L
    rows.foreach { r =>
      sum += hash64(order.map { case (_, i) => canon(r(i)) }.mkString("\u0001"))
      n += 1
    }
    Checksum(order.map(_._1).mkString(","), n, sum)
  }

  def ofDataFrame(df: org.apache.spark.sql.DataFrame): Checksum =
    of(df.columns.toSeq, df.collect().iterator.map(_.toSeq))

  def ofResultSet(rs: java.sql.ResultSet): Checksum = {
    val meta = rs.getMetaData
    val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
    of(cols, Iterator.continually(rs).takeWhile(_.next())
      .map(r => cols.indices.map(i => r.getObject(i + 1))))
  }
}
