package repro.series

/** Sortable summarization (paper §4.1, Algorithm 1).
  *
  * `invSAX` interleaves the bits of all `w` SAX symbols so that every more
  * significant bit (across all segments) precedes every less significant
  * bit: the bit stream is [bit 0 of seg 0..w-1, bit 1 of seg 0..w-1, …]
  * with bit 0 the MSB of each symbol. Order of the interleaved word is
  * exactly z-order (Morton order) of the SAX symbol vector, so sorting by
  * invSAX keeps series that are similar across *all* segments adjacent —
  * the property the paper's bulk loading relies on.
  *
  * The word is one sign-flipped `Long`: the stream left-aligned into 64
  * bits (bit `i` of symbol `j` is key bit `63 − (i·w + j)`), top bit
  * flipped, so that natural *signed* Long order equals z-order. It is the
  * sort key of every index and of the Spark dataflow, where a LongType
  * column range-partitions and carries Parquet min/max stats.
  * [[SaxParams]] guarantees `w·bits ≤ 64`.
  */
object InvSAX {

  /** Algorithm 1: interleave a SAX word into its sign-flipped Long invSAX. */
  def toLong(word: Array[Int], p: SaxParams): Long = {
    require(word.length == p.w, s"expected a word of ${p.w} symbols, got ${word.length}")
    val w = p.w; val bits = p.bits
    var v = 0L
    var j = 0
    while (j < w) {
      val sym = word(j)
      var i = 0 // bit position within the symbol, MSB first
      while (i < bits) {
        v |= ((sym >>> (bits - 1 - i)) & 1L) << (63 - (i * w + j))
        i += 1
      }
      j += 1
    }
    v ^ Long.MinValue
  }

  /** Recover the SAX word from a sign-flipped Long invSAX. */
  def fromLong(inv: Long, p: SaxParams): Array[Int] = {
    val w = p.w; val bits = p.bits
    val raw = inv ^ Long.MinValue
    val out = new Array[Int](w)
    var j = 0
    while (j < w) {
      var sym = 0
      var i = 0
      while (i < bits) {
        sym = (sym << 1) | ((raw >>> (63 - (i * w + j))) & 1L).toInt
        i += 1
      }
      out(j) = sym
      j += 1
    }
    out
  }

  /** Cells of [[SaxParams.symbolGrid]], over [−4, 4). */
  private[series] val GridCells = 1024
  /** Cells per unit value: 1,024 cells over a width of 8. */
  private[series] val GridScale = 128.0

  /** Summarize one series in one pass (Algorithm 1 fused with PAA and
    * SAX): write its `w` SAX symbols to `syms(off until off + w)` and
    * return its invSAX key, both equal to `SAX.sax` and [[toLong]] of it.
    *
    * Each segment is summed as `Series.paa` sums it. Its symbol starts from
    * the grid cell of the segment mean and steps up past every breakpoint
    * ≤ the mean and down past every breakpoint > it, which leaves the
    * number of breakpoints ≤ the mean, as `SAX.symbol` counts them; a
    * mean outside the grid goes to `SAX.symbol` itself. Nothing is
    * allocated.
    *
    * A series holding a NaN or infinite value is rejected: a segment sum
    * that is not finite sends the series to `Series.requireFinite`, which
    * checks it value by value. Finite values whose sum overflows are
    * summarized as `SAX.sax` summarizes them.
    */
  def summarize(series: Array[Double], p: SaxParams, syms: Array[Byte], off: Int): Long = {
    if (series.length != p.n)
      throw new IllegalArgumentException(s"expected a series of ${p.n} values, got ${series.length}")
    val w = p.w; val bits = p.bits; val seg = p.n / w
    val bp = p.breakpoints; val top = bp.length
    val grid = p.symbolGrid; val spread = p.spread
    var key = 0L
    var i = 0; var j = 0
    while (j < w) {
      var acc = 0.0
      val end = i + seg
      while (i < end) { acc += series(i); i += 1 }
      if (!java.lang.Double.isFinite(acc)) Series.requireFinite(series)
      val v = acc / seg
      val sym =
        if (v >= -4.0 && v < 4.0) {
          var s = grid(math.min(((v + 4.0) * GridScale).toInt, GridCells - 1))
          while (s < top && bp(s) <= v) s += 1
          while (s > 0 && bp(s - 1) > v) s -= 1
          s
        } else SAX.symbol(v, bp)
      syms(off + j) = sym.toByte
      key |= spread((j << bits) | sym)
      j += 1
    }
    key ^ Long.MinValue
  }

  /** invSAX of a z-normalized series, its symbols dropped — the one-call
    * path of a Coconut-Tree query key and of the Spark dataflow.
    */
  def ofSeries(series: Array[Double], p: SaxParams): Long =
    summarize(series, p, new Array[Byte](p.w), 0)
}
