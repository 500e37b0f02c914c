package repro.util

/** Stable sort of primitive (key, value) pairs, without boxing: the
  * invSAX build sort and the candidate orders of a SIMS fetch.
  */
object StableSort {

  /** Sort the pairs `(keys(k), values(k))` by signed key, in place; pairs
    * with equal keys keep their order. A bottom-up merge sort that streams
    * through both arrays on every pass.
    */
  def byKey(keys: Array[Long], values: Array[Int]): Unit = {
    val n = keys.length
    require(values.length == n, s"${values.length} values for $n keys")
    var sk = keys; var sv = values
    var dk = new Array[Long](n); var dv = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n); val hi = math.min(lo + 2 * width, n)
        var a = lo; var b = mid; var k = lo
        while (a < mid && b < hi) {
          if (sk(a) <= sk(b)) { dk(k) = sk(a); dv(k) = sv(a); a += 1 }
          else { dk(k) = sk(b); dv(k) = sv(b); b += 1 }
          k += 1
        }
        System.arraycopy(sk, a, dk, k, mid - a); System.arraycopy(sv, a, dv, k, mid - a)
        k += mid - a
        System.arraycopy(sk, b, dk, k, hi - b); System.arraycopy(sv, b, dv, k, hi - b)
        lo = hi
      }
      val tk = sk; sk = dk; dk = tk
      val tv = sv; sv = dv; dv = tv
      width *= 2
    }
    if (sk ne keys) { System.arraycopy(sk, 0, keys, 0, n); System.arraycopy(sv, 0, values, 0, n) }
  }
}
