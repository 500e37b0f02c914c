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
  * are written by `InvSAX.summarize` while it computes a series' key,
  * never decoded from a key.
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
    * followed by `b`. Each run of consecutive records taken from one side
    * is copied with one `System.arraycopy` per column.
    */
  def merge(a: Summaries, b: Summaries): Summaries = {
    val w = a.p.w
    val n = a.size + b.size
    val keys = new Array[Long](n); val ids = new Array[Int](n); val syms = new Array[Byte](n * w)
    var k = 0
    def copy(src: Summaries, from: Int, until: Int): Unit = {
      val m = until - from
      System.arraycopy(src.keys, from, keys, k, m)
      System.arraycopy(src.ids, from, ids, k, m)
      System.arraycopy(src.syms, from * w, syms, k * w, m * w)
      k += m
    }
    var i = 0; var j = 0
    while (k < n) {
      var e = i // a's run: its records with keys ≤ b's next key
      if (j == b.size) e = a.size else while (e < a.size && a.keys(e) <= b.keys(j)) e += 1
      copy(a, i, e); i = e
      var f = j // b's run: its records with keys < a's next key
      if (i == a.size) f = b.size else while (f < b.size && b.keys(f) < a.keys(i)) f += 1
      copy(b, j, f); j = f
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
  *
  * A scan of a key-sorted store under a finite pruning bound first bounds
  * each block of [[MinDist.Block]] consecutive records from the top key
  * bits the block's records share ([[blockBound]]) and skips a block whose
  * bound is not below the pruning bound: no record in it can survive. The
  * survivors, their order and their lower bounds are those of the
  * per-record scan.
  * Serializable, so a Spark task can carry it to the executors.
  */
final class MinDist(qPaa: Array[Double], p: SaxParams) extends Serializable {
  require(qPaa.length == p.w, s"query PAA has ${qPaa.length} segments, expected ${p.w}")
  private val w = p.w
  private val bits = p.bits
  private val n = p.n

  private val table = new Array[Double](w << bits)
  /** Segment `j`'s run of zero table entries, the symbols whose regions
    * hold the query's PAA value, is `zeroFrom(j) to zeroTo(j)`. The regions
    * are ordered and cover every value, so the row falls to this run and
    * rises after it.
    */
  private val zeroFrom = new Array[Int](w)
  private val zeroTo = new Array[Int](w)

  locally {
    var j = 0
    while (j < w) {
      val v = qPaa(j)
      zeroFrom(j) = p.card
      var s = 0
      while (s < p.card) {
        val lo = SAX.regionLow(s, p); val hi = SAX.regionHigh(s, p)
        val d = if (v < lo) lo - v else if (v > hi) v - hi else 0.0
        table((j << bits) | s) = d * d
        if (d == 0.0) { zeroFrom(j) = math.min(zeroFrom(j), s); zeroTo(j) = s }
        s += 1
      }
      j += 1
    }
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

  /** A lower bound on the record bounds of the key-sorted `s` in
    * `[from, until)`, no larger than any of them, bit for bit.
    *
    * The keys are sorted, so every key in the block shares the top `L`
    * bits of its first and last key. Key bit `i·w + j` (from the top) is
    * bit `i` of segment `j`'s symbol, so segment `j` has
    * `min(bits, ceil((L − j) / w))` fixed top bits, and its symbols lie in
    * the range of the first record's symbol with its free low bits cleared
    * or set. The segment term is the smallest table entry over that range:
    * 0 if it meets the zero run, else the entry at its nearer end. Each
    * term is ≤ the matching term of every record in the block, and IEEE
    * addition, scaling and `sqrt` are monotone, so, summed in segment
    * order, the block bound is ≤ every record bound.
    */
  private[index] def blockBound(s: Summaries, from: Int, until: Int): Double = {
    val shared = java.lang.Long.numberOfLeadingZeros(s.keys(from) ^ s.keys(until - 1))
    val rounds = shared / w; val rest = shared - rounds * w // ceil((L − j) / w) is rounds + (j < rest)
    val syms = s.syms
    val base = from * w
    var acc = 0.0; var j = 0
    while (j < w) {
      val fixed = math.min(bits, if (j < rest) rounds + 1 else rounds)
      val free = (1 << (bits - fixed)) - 1
      val lo = syms(base + j) & 0xff & ~free
      val hi = lo | free
      acc += (if (hi < zeroFrom(j)) table((j << bits) | hi) else if (lo > zeroTo(j)) table((j << bits) | lo) else 0.0)
      j += 1
    }
    math.sqrt(acc * n / w)
  }

  /** Add every record of `s` in `[from, until)` whose lower bound is below
    * `bound` to `out`, in store order. A survivor's position is its store
    * index when `byIndex` (the index file holds records in store order),
    * else its raw-file id. A key-sorted store is scanned block by block,
    * skipping each block whose [[blockBound]] is not below `bound`. A store
    * without keys (in raw-file order, like ADS's) is scanned record by
    * record, and so is any store under an infinite `bound`, which skips no
    * block.
    */
  def scan(s: Summaries, from: Int, until: Int, bound: Double, byIndex: Boolean, out: Candidates): Unit =
    if (s.keys.isEmpty || bound == Double.PositiveInfinity) scanRecords(s, from, until, bound, byIndex, out)
    else {
      var b = from
      while (b < until) {
        val e = math.min(b + MinDist.Block, until)
        if (blockBound(s, b, e) < bound) scanRecords(s, b, e, bound, byIndex, out)
        b = e
      }
    }

  private def scanRecords(s: Summaries, from: Int, until: Int, bound: Double, byIndex: Boolean, out: Candidates): Unit = {
    val syms = s.syms; val ids = s.ids
    var i = from
    while (i < until) {
      val lb = lowerBound(syms, i)
      if (lb < bound) out.add(if (byIndex) i else ids(i), ids(i), lb)
      i += 1
    }
  }
}

object MinDist {

  /** Records per block of a key-sorted scan's block pass. Smaller blocks
    * keep fewer records for the per-record pass but compute more block
    * bounds; on 150k-record stores (astronomy and random walk, 8×8) blocks
    * of 64 and 128 scanned fastest, within each other's noise.
    */
  private[index] val Block = 64
}
