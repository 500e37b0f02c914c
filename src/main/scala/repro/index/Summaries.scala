package repro.index

import repro.series.{SAX, SaxParams}

/** The in-memory summarizations a SIMS-style scan reads (paper Algorithm 5),
  * one primitive column each, in the index's record order:
  *
  *  - `keys(i)`: record i's invSAX sort key (empty for an index that keeps
  *    its records in raw-file order and has no sort key, like ADS);
  *  - `ids(i)`: its position in the raw file;
  *  - `syms(i * w + j)`: its SAX symbol on segment `j`, one unsigned byte
  *    each, so the `w` symbols of a record lie next to each other.
  *
  * No per-record objects: 20 bytes per record at w = 8 with keys. Symbols
  * come straight from the SAX words computed when a series is summarized,
  * never from decoding a key.
  */
final class Summaries(val p: SaxParams, val keys: Array[Long], val ids: Array[Int], val syms: Array[Byte]) {
  require(syms.length == ids.length * p.w && (keys.isEmpty || keys.length == ids.length),
    s"columns of unequal length: ${keys.length} keys, ${ids.length} ids, ${syms.length} symbols")

  def size: Int = ids.length

  /** Record `i`'s symbol on segment `j`. */
  def sym(i: Int, j: Int): Int = syms(i * p.w + j) & 0xff

  /** Store a SAX word as record `i`'s symbols. */
  def setSymbols(i: Int, word: Array[Int]): Unit = {
    var j = 0
    while (j < p.w) { syms(i * p.w + j) = word(j).toByte; j += 1 }
  }
}

object Summaries {

  /** Merge two key-sorted stores in one linear pass. On equal keys the
    * records of `a` come first, so the result is the stable sort of `a`
    * followed by `b`.
    */
  def merge(a: Summaries, b: Summaries): Summaries = {
    val w = a.p.w
    val n = a.size + b.size
    val keys = new Array[Long](n); val ids = new Array[Int](n); val syms = new Array[Byte](n * w)
    var i = 0; var j = 0; var k = 0
    while (k < n) {
      val fromA = j >= b.size || (i < a.size && a.keys(i) <= b.keys(j))
      val src = if (fromA) a else b
      val r = if (fromA) i else j
      keys(k) = src.keys(r); ids(k) = src.ids(r)
      System.arraycopy(src.syms, r * w, syms, k * w, w)
      if (fromA) i += 1 else j += 1
      k += 1
    }
    new Summaries(a.p, keys, ids, syms)
  }
}

/** The one MINDIST kernel of every SIMS-style scan. It holds, for one query,
  * a `w × card` table of squared per-segment distances from the query's PAA
  * value to each symbol's region. A record's lower bound is the sum of its
  * `w` table entries in segment order, starting from 0.0, scaled by
  * `sqrt(· n / w)`: the same operations in the same order as
  * [[repro.series.SAX.minDistPaaToSax]], so the bounds are bit-identical.
  * Serializable, so a Spark task can carry it to the executors.
  */
final class MinDist(qPaa: Array[Double], p: SaxParams) extends Serializable {
  require(qPaa.length == p.w, s"query PAA has ${qPaa.length} segments, expected ${p.w}")
  private val w = p.w
  private val bits = p.bits
  private val n = p.n

  private val table: Array[Double] = {
    val t = new Array[Double](w << bits)
    var j = 0
    while (j < w) {
      val v = qPaa(j)
      var s = 0
      while (s < p.card) {
        val lo = SAX.regionLow(s, p); val hi = SAX.regionHigh(s, p)
        val d = if (v < lo) lo - v else if (v > hi) v - hi else 0.0
        t((j << bits) | s) = d * d
        s += 1
      }
      j += 1
    }
    t
  }

  /** Lower bound on the distance from the query to record `i` of `syms`. */
  def lowerBound(syms: Array[Byte], i: Int): Double = {
    val base = i * w
    var acc = 0.0; var j = 0
    while (j < w) { acc += table((j << bits) | (syms(base + j) & 0xff)); j += 1 }
    math.sqrt(acc * n / w)
  }

  /** Lower bound on the distance from the query to a series with SAX word
    * `word`, summed in the same order as the store overload.
    */
  def lowerBound(word: Array[Int]): Double = {
    var acc = 0.0; var j = 0
    while (j < w) { acc += table((j << bits) | word(j)); j += 1 }
    math.sqrt(acc * n / w)
  }

  /** Add every record of `s` in `[from, until)` whose lower bound is below
    * `bound` to `out`, in store order. A survivor's position is its store
    * index when `byIndex` (the index file holds records in store order),
    * else its raw-file id.
    */
  def scan(s: Summaries, from: Int, until: Int, bound: Double, byIndex: Boolean, out: Candidates): Unit = {
    val syms = s.syms; val ids = s.ids
    var i = from
    while (i < until) {
      val lb = lowerBound(syms, i)
      if (lb < bound) out.add(if (byIndex) i else ids(i), ids(i), lb)
      i += 1
    }
  }
}
