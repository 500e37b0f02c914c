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

  /** invSAX of a z-normalized series — the one-call path used by the Spark
    * dataflow.
    */
  def ofSeries(series: Array[Double], p: SaxParams): Long =
    toLong(SAX.sax(series, p), p)
}
