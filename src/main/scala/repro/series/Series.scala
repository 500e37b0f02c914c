package repro.series

/** Core data-series operations: z-normalization, Euclidean distance, PAA.
  *
  * A data series is a fixed-length `Array[Double]`. All indexes in this
  * repo operate on z-normalized series (paper §2: minimizing ED on
  * z-normalized data maximizes Pearson correlation).
  */
object Series {

  /** z-normalize: subtract mean, divide by (population) standard deviation.
    * Constant series normalize to all-zero rather than dividing by zero.
    */
  def znormalize(s: Array[Double]): Array[Double] = {
    val n = s.length
    var sum = 0.0; var i = 0
    while (i < n) { sum += s(i); i += 1 }
    val mean = sum / n
    var sq = 0.0; i = 0
    while (i < n) { val d = s(i) - mean; sq += d * d; i += 1 }
    val std = math.sqrt(sq / n)
    if (std < 1e-12) new Array[Double](n)
    else {
      val out = new Array[Double](n); i = 0
      while (i < n) { out(i) = (s(i) - mean) / std; i += 1 }
      out
    }
  }

  /** Reject a series holding a NaN or an infinity, naming the first such
    * value.
    */
  def requireFinite(s: Array[Double]): Unit = {
    var i = 0
    while (i < s.length) {
      if (!java.lang.Double.isFinite(s(i)))
        throw new IllegalArgumentException(s"value $i is ${s(i)}; indexed values must be finite")
      i += 1
    }
  }

  /** Euclidean distance between two equal-length series. */
  def euclidean(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"length mismatch: ${a.length} vs ${b.length}")
    var acc = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); acc += d * d; i += 1 }
    math.sqrt(acc)
  }

  /** Squared Euclidean distance with early abandoning: returns a value
    * > `bound`² as soon as the partial sum exceeds it (used by exact search
    * inner loops; callers compare squared values).
    */
  def squaredEuclideanAbandon(a: Array[Double], b: Array[Double], bound2: Double): Double = {
    var acc = 0.0; var i = 0
    while (i < a.length && acc <= bound2) { val d = a(i) - b(i); acc += d * d; i += 1 }
    acc
  }

  /** Piecewise Aggregate Approximation: mean of each of `w` equal segments.
    * Requires `w` to divide the series length (all paper configurations do).
    */
  def paa(s: Array[Double], w: Int): Array[Double] = {
    val n = s.length
    require(w >= 1 && n % w == 0, s"segments ($w) must divide length ($n)")
    val seg = n / w
    val out = new Array[Double](w)
    var j = 0
    while (j < w) {
      var acc = 0.0; var i = j * seg
      val end = i + seg
      while (i < end) { acc += s(i); i += 1 }
      out(j) = acc / seg
      j += 1
    }
    out
  }

  /** Lower bound on ED between full series given only their PAA vectors
    * (Keogh et al.): sqrt(n/w · Σ (paaA_j − paaB_j)²).
    */
  def paaLowerBound(paaA: Array[Double], paaB: Array[Double], n: Int): Double = {
    require(paaA.length == paaB.length)
    var acc = 0.0; var j = 0
    while (j < paaA.length) { val d = paaA(j) - paaB(j); acc += d * d; j += 1 }
    math.sqrt(acc * n / paaA.length)
  }
}
