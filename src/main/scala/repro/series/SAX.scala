package repro.series

import repro.util.Gaussian

/** SAX / iSAX summarization (paper §2, Fig. 1).
  *
  * A SAX word over `w` segments with `bits` bits per segment maps each PAA
  * segment mean to the index of its N(0,1) equi-probable region, encoded as
  * an ordinal in [0, 2^bits). Region 0 is the lowest-value region, so the
  * symbol ordering follows the value ordering — the property that makes the
  * z-order interleaving of [[InvSAX]] meaningful.
  *
  * Every index stores a symbol in one byte and an invSAX key in one Long,
  * so the parameters are checked here, once: `bits ≤ 8` and `w·bits ≤ 64`.
  */
final case class SaxParams(n: Int, w: Int, bits: Int) {
  require(w >= 1 && n % w == 0, s"segments ($w) must divide series length ($n)")
  require(bits >= 1, s"bits per segment must be at least 1, got $bits")
  require(bits <= 8, s"SAX symbols are stored one byte each, so bits per segment must be at most 8; got $bits")
  require(w.toLong * bits <= 64, s"invSAX keys are one Long, so w·bits must be at most 64; got ${w}·$bits = ${w.toLong * bits}")
  /** Cardinality per segment. */
  val card: Int = 1 << bits
  /** Total bits in a (inv)SAX word. */
  val totalBits: Int = w * bits
  /** Bytes needed to store an interleaved word. */
  val wordBytes: Int = (totalBits + 7) / 8
  /** Region boundaries, shared by all segments. */
  val breakpoints: Array[Double] = Gaussian.breakpoints(card)
}

object SAX {

  /** Symbol (region index in [0, card)) for a single PAA value:
    * the number of breakpoints ≤ v, via binary search.
    */
  def symbol(v: Double, breakpoints: Array[Double]): Int = {
    var lo = 0; var hi = breakpoints.length // answer in [0, len]
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (breakpoints(mid) <= v) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** SAX word of a (z-normalized) series: one symbol per segment. */
  def sax(series: Array[Double], p: SaxParams): Array[Int] =
    fromPaa(Series.paa(series, p.w), p)

  /** SAX word from an already-computed PAA vector. */
  def fromPaa(paa: Array[Double], p: SaxParams): Array[Int] = {
    require(paa.length == p.w)
    val out = new Array[Int](p.w)
    var j = 0
    while (j < p.w) { out(j) = symbol(paa(j), p.breakpoints); j += 1 }
    out
  }

  /** Lower (inclusive) value bound of region `sym` (−∞ for region 0). */
  def regionLow(sym: Int, p: SaxParams): Double =
    if (sym == 0) Double.NegativeInfinity else p.breakpoints(sym - 1)

  /** Upper (exclusive) value bound of region `sym` (+∞ for the top region). */
  def regionHigh(sym: Int, p: SaxParams): Double =
    if (sym == p.card - 1) Double.PositiveInfinity else p.breakpoints(sym)

  /** MINDIST lower bound between a query's PAA vector and a stored SAX word
    * (Shieh & Keogh): per segment, distance from the query PAA value to the
    * nearest edge of the symbol's region (0 if inside), combined as
    * sqrt(n/w · Σ d_j²). Guaranteed ≤ true ED of any series in the region.
    */
  def minDistPaaToSax(qPaa: Array[Double], word: Array[Int], p: SaxParams): Double = {
    require(qPaa.length == p.w && word.length == p.w)
    var acc = 0.0; var j = 0
    while (j < p.w) {
      val lo = regionLow(word(j), p)
      val hi = regionHigh(word(j), p)
      val v = qPaa(j)
      val d = if (v < lo) lo - v else if (v > hi) v - hi else 0.0
      acc += d * d
      j += 1
    }
    math.sqrt(acc * p.n / p.w)
  }
}
