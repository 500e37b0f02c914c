package repro.util

/** Stable sort of primitive (key, value) pairs, without boxing: the
  * invSAX build sort and the candidate orders of a SIMS fetch.
  */
object StableSort {

  /** Inputs of at least this many keys are sorted by top-byte bucket on
    * [[Pool]]. Smaller ones, among them a batch of new series and the
    * candidates of a query on an index of fewer records, are sorted on the
    * caller.
    */
  private[repro] val PartitionMin = 1 << 18

  /** Sort the pairs `(keys(k), values(k))` by signed key, in place; pairs
    * with equal keys keep their order. A least-significant-digit radix sort
    * over the key's 8 bytes, with the sign bit flipped so that unsigned
    * byte order is signed key order. From [[PartitionMin]] keys, one stable
    * counting pass first scatters the pairs by their top byte, and the 256
    * buckets are then radix-sorted in parallel. The result is the same
    * either way.
    */
  def byKey(keys: Array[Long], values: Array[Int]): Unit = {
    val n = keys.length
    require(values.length == n, s"${values.length} values for $n keys")
    if (n < 2) return
    val bufK = new Array[Long](n); val bufV = new Array[Int](n)
    if (n < PartitionMin) {
      if (lsd(keys, values, bufK, bufV, 0, n)) { System.arraycopy(bufK, 0, keys, 0, n); System.arraycopy(bufV, 0, values, 0, n) }
      return
    }
    val starts = new Array[Int](257) // bucket b is bufK(starts(b) until starts(b + 1))
    var i = 0
    while (i < n) { starts(top(keys(i)) + 1) += 1; i += 1 }
    var b = 0
    while (b < 256) { starts(b + 1) += starts(b); b += 1 }
    val next = java.util.Arrays.copyOf(starts, 256)
    i = 0
    while (i < n) {
      val k = keys(i); val t = top(k); val to = next(t)
      bufK(to) = k; bufV(to) = values(i)
      next(t) = to + 1
      i += 1
    }
    Pool.chunked(256, 1) { (lo, hi) =>
      var b = lo
      while (b < hi) {
        val from = starts(b); val m = starts(b + 1) - from
        if (!lsd(bufK, bufV, keys, values, from, from + m)) {
          System.arraycopy(bufK, from, keys, from, m); System.arraycopy(bufV, from, values, from, m)
        }
        b += 1
      }
    }
  }

  /** The sign-flipped top byte of a key: its bucket. */
  private def top(k: Long): Int = ((k ^ Long.MinValue) >>> 56).toInt

  /** Radix-sort `keys(from until until)` and its values stably by signed
    * key, using the same range of `bufK`/`bufV` as scratch. One pass counts
    * all 8 byte histograms; a byte that every key in the range shares (the
    * top byte of a bucket) is skipped, and each other byte is one stable
    * counting pass between the two array pairs. Returns true if the sorted
    * range ended in the scratch pair, false if in `keys`/`values`.
    */
  private def lsd(keys: Array[Long], values: Array[Int], bufK: Array[Long], bufV: Array[Int],
                  from: Int, until: Int): Boolean = {
    val m = until - from
    if (m < 2) return false
    val counts = new Array[Int](8 << 8) // byte d's count of value b at (d << 8) | b
    var i = from
    while (i < until) {
      val k = keys(i) ^ Long.MinValue
      var d = 0
      while (d < 8) { counts((d << 8) | ((k >>> (d << 3)) & 0xff).toInt) += 1; d += 1 }
      i += 1
    }
    var sk = keys; var sv = values
    var dk = bufK; var dv = bufV
    var d = 0
    while (d < 8) {
      val base = d << 8; val shift = d << 3
      if (counts(base | (((sk(from) ^ Long.MinValue) >>> shift) & 0xff).toInt) != m) {
        var at = from; var b = 0 // the counts become each byte value's first slot
        while (b < 256) { val c = counts(base | b); counts(base | b) = at; at += c; b += 1 }
        i = from
        while (i < until) {
          val k = sk(i)
          val slot = base | (((k ^ Long.MinValue) >>> shift) & 0xff).toInt
          val to = counts(slot)
          dk(to) = k; dv(to) = sv(i)
          counts(slot) = to + 1
          i += 1
        }
        val tk = sk; sk = dk; dk = tk
        val tv = sv; sv = dv; dv = tv
      }
      d += 1
    }
    sk ne keys
  }
}
