package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is 0 for a root span; all spans
  * of one query run share `query`.
  */
final case class Span(id: Int, parent: Int, query: Int, name: String,
                      start: Long, end: Long) {
  def nanos: Long = end - start
}

/** In-memory span recorder for a single driver thread. Spans are kept
  * until the run ends and written out then; a disabled tracer only runs
  * the body.
  */
final class Tracer(val enabled: Boolean) {
  private val done = ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var nextId = 1
  private var query = 0

  /** Start a new query run; later spans carry its id. */
  def newQuery(): Int = { query += 1; query }

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(0)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        done += Span(id, parent, query, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  def spans: Vector[Span] = done.toVector.sortBy(_.id)
}

object Tracer {

  /** Self time of every span: its duration minus the part of its interval
    * that its child spans cover (overlapping children counted once).
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val kids = spans.groupBy(_.parent)
    spans.map { s =>
      val iv = kids.getOrElse(s.id, Nil)
        .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curEnd = Long.MinValue
      iv.foreach { case (a, b) =>
        if (a >= curEnd) { covered += b - a; curEnd = b }
        else if (b > curEnd) { covered += b - curEnd; curEnd = b }
      }
      s.id -> (s.nanos - covered)
    }.toMap
  }

  /** One JSON object per span, times in microseconds from the first span. */
  def write(spans: Seq[Span], path: java.nio.file.Path): Unit = {
    val self = selfNanos(spans)
    val t0 = if (spans.isEmpty) 0L else spans.map(_.start).min
    val lines = spans.map { s =>
      f"""{"id":${s.id},"parent":${s.parent},"query":${s.query},"name":"${s.name}",""" +
        f""""start_us":${(s.start - t0) / 1000},"end_us":${(s.end - t0) / 1000},""" +
        f""""self_us":${self(s.id) / 1000}}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}
