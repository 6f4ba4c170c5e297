package perfbench

import org.scalatest.funsuite.AnyFunSuite

class ChecksumSpec extends AnyFunSuite {

  private val cols = Seq("x", "cnt", "s")
  private val rows = Seq(
    Seq[Any](1L, 3L, "a"), Seq[Any](2L, 1L, "b"), Seq[Any](2L, 1L, "b"), Seq[Any](7L, null, "c"))

  private def sum(cs: Seq[String], rs: Seq[Seq[Any]]) = Checksum.of(cs, rs.iterator)

  test("row order does not matter") {
    assert(sum(cols, rows) == sum(cols, rows.reverse))
    assert(sum(cols, rows) == sum(cols, scala.util.Random.shuffle(rows)))
  }

  test("column order does not matter, names are compared case-insensitively") {
    val perm = Seq(2, 0, 1)
    val permuted = rows.map(r => perm.map(r))
    assert(sum(cols, rows) == sum(perm.map(cols).map(_.toUpperCase), permuted))
  }

  test("duplicate rows, values and columns all count") {
    assert(sum(cols, rows) != sum(cols, rows.distinct))
    assert(sum(cols, rows) != sum(cols, rows.updated(0, Seq[Any](1L, 4L, "a"))))
    assert(sum(cols, rows) != sum(Seq("x", "cnt", "t"), rows))
    assert(sum(cols, rows).rows == 4)
  }

  test("doubles are rounded to six decimals, as the oracle does") {
    def one(v: Any) = sum(Seq("v"), Seq(Seq(v)))
    assert(one(1.0000001) == one(1.0000004))
    assert(one(1.0000001) != one(1.000002))
    assert(one(2.5) == one(2.5f))
    assert(one(2.5) == one(new java.math.BigDecimal("2.5000000001")))
    assert(one(0.0) == one(-0.0))
    assert(Checksum.canon(1234.5) == "1234.500000")
    assert(Checksum.canon(null) == "∅")
  }

  test("integers keep every digit") {
    assert(Checksum.canon(12345678901234L) == "12345678901234")
    assert(Checksum.canon(java.math.BigInteger.valueOf(12345678901234L)) == "12345678901234")
  }
}
