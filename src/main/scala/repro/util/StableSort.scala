package repro.util

/** Stable sort of primitive (key, value) pairs, without boxing: the
  * invSAX build sort and the candidate orders of a SIMS fetch.
  */
object StableSort {

  /** Sort the pairs `(keys(k), values(k))` by signed key, in place; pairs
    * with equal keys keep their order. A least-significant-digit radix sort
    * over the key's 8 bytes, with the sign bit flipped so that unsigned
    * byte order is signed key order. One pass counts all 8 byte
    * histograms; a byte that every key shares is skipped, and each other
    * byte is one stable counting pass over both arrays.
    */
  def byKey(keys: Array[Long], values: Array[Int]): Unit = {
    val n = keys.length
    require(values.length == n, s"${values.length} values for $n keys")
    if (n < 2) return
    val counts = new Array[Int](8 << 8) // byte d's count of value b at (d << 8) | b
    var i = 0
    while (i < n) {
      val k = keys(i) ^ Long.MinValue
      var d = 0
      while (d < 8) { counts((d << 8) | ((k >>> (d << 3)) & 0xff).toInt) += 1; d += 1 }
      i += 1
    }
    var sk = keys; var sv = values
    var dk: Array[Long] = null; var dv: Array[Int] = null
    var d = 0
    while (d < 8) {
      val base = d << 8; val shift = d << 3
      if (counts(base | (((sk(0) ^ Long.MinValue) >>> shift) & 0xff).toInt) != n) {
        if (dk == null) { dk = new Array[Long](n); dv = new Array[Int](n) }
        var at = 0; var b = 0 // the counts become each byte value's first slot
        while (b < 256) { val c = counts(base | b); counts(base | b) = at; at += c; b += 1 }
        i = 0
        while (i < n) {
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
    if (sk ne keys) { System.arraycopy(sk, 0, keys, 0, n); System.arraycopy(sv, 0, values, 0, n) }
  }
}
