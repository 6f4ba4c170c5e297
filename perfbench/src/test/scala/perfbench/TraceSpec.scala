package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, start: Long, end: Long) =
    Span(id, parent, query = 1, name = s"s$id", start, end)

  test("self time subtracts the union of the children") {
    val spans = Seq(
      span(1, 0, 0, 100),
      span(2, 1, 10, 30), span(3, 1, 20, 50), // overlap: 10..50 counted once
      span(4, 1, 60, 70),
      span(5, 2, 12, 14)) // grandchild: only its own parent loses it
    val self = Tracer.selfNanos(spans)
    assert(self(1) == 100 - 40 - 10)
    assert(self(2) == 20 - 2)
    assert(self(3) == 30)
    assert(self(5) == 2)
  }

  test("children reaching outside the parent are clipped to it") {
    val self = Tracer.selfNanos(Seq(span(1, 0, 10, 20), span(2, 1, 5, 15), span(3, 1, 18, 40)))
    assert(self(1) == 10 - 5 - 2)
  }

  test("nested calls record parents and share the query id") {
    val tr = new Tracer(true)
    val q = tr.newQuery()
    tr.span("outer") { tr.span("inner")(()); tr.span("inner")(()) }
    val spans = tr.spans
    val outer = spans.find(_.name == "outer").get
    assert(outer.parent == 0)
    assert(spans.filter(_.name == "inner").forall(_.parent == outer.id))
    assert(spans.forall(_.query == q))
    assert(Tracer.selfNanos(spans).values.forall(_ >= 0))
  }

  test("a disabled tracer records nothing") {
    val tr = new Tracer(false)
    assert(tr.span("x")(41 + 1) == 42)
    assert(tr.spans.isEmpty)
  }

  test("tail is the highest percentile with ten samples above it") {
    val xs = (1 to 30).map(_.toDouble)
    val (v, pct) = Summary.tail(xs)
    assert(v == 20.0)
    assert(xs.count(_ > v) == 10)
    assert(math.abs(pct - 66.6667) < 1e-3)
    assert(Summary.tail(Seq(3.0, 1.0)) == ((3.0, 100.0)))
    assert(Summary.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }
}
