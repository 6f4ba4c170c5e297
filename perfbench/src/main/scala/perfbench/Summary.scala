package perfbench

/** Order statistics over latency samples. */
object Summary {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile that still has at least ten samples above it,
    * as (value, percentile). With ten samples or fewer it is the maximum.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.size
    if (n <= 10) (s.last, 100.0)
    else (s(n - 11), 100.0 * (n - 10) / n)
  }

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), s"geomean needs positive samples: $xs")
    math.exp(xs.map(math.log).sum / xs.size)
  }
}
