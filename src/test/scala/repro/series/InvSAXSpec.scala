package repro.series

import org.scalatest.funsuite.AnyFunSuite

class InvSAXSpec extends AnyFunSuite {

  private val rnd = new java.util.Random(13)
  private val p = SaxParams(n = 32, w = 4, bits = 4)
  private val p64 = SaxParams(n = 256, w = 8, bits = 8) // full 64-bit word

  private def randWord(pp: SaxParams): Array[Int] = Array.fill(pp.w)(rnd.nextInt(pp.card))

  // The paper's Algorithm 1 as written, for words of any width: the
  // interleaved bits packed big-endian into bytes, compared as unsigned
  // bytes. The Long encoding must equal it, left-aligned and sign-flipped.
  private def interleave(word: Array[Int], p: SaxParams): Array[Byte] = {
    val out = new Array[Byte](p.wordBytes)
    var outBit = 0
    for (i <- 0 until p.bits; j <- 0 until p.w) {
      val bit = (word(j) >>> (p.bits - 1 - i)) & 1
      if (bit == 1) out(outBit >> 3) = (out(outBit >> 3) | (0x80 >>> (outBit & 7))).toByte
      outBit += 1
    }
    out
  }
  private def compareBytes(a: Array[Byte], b: Array[Byte]): Int =
    a.zip(b).map { case (x, y) => (x & 0xff) - (y & 0xff) }.find(_ != 0).getOrElse(0)
  private def packedLong(bytes: Array[Byte]): Long =
    (0 until 8).foldLeft(0L)((v, i) => (v << 8) | (if (i < bytes.length) bytes(i) & 0xffL else 0L)) ^ Long.MinValue

  /** toLong equals the reference and fromLong inverts it, on random words. */
  private def checkAgainstReference(pp: SaxParams, words: Int): Unit =
    (0 until words).foreach { _ =>
      val w = randWord(pp)
      val inv = InvSAX.toLong(w, pp)
      assert(inv == packedLong(interleave(w, pp)), s"word ${w.mkString(",")} at $pp")
      assert(InvSAX.fromLong(inv, pp).sameElements(w))
    }

  test("interleave produces the documented bit layout on a small example") {
    // w=2, bits=2; word = (0b10, 0b01) -> interleaved MSBs first: 1,0 then 0,1 = 0b1001
    val pp = SaxParams(4, 2, 2)
    val inv = interleave(Array(2, 1), pp)
    assert(inv.length == 1)
    assert((inv(0) & 0xff) == 0x90) // 1001 0000 (padded)
    assert(InvSAX.toLong(Array(2, 1), pp) == ((0x90L << 56) ^ Long.MinValue))
  }
  test("interleave/deinterleave round-trips") {
    // Small and mid-width words: 4, 16 and 48 bits.
    Seq(SaxParams(4, 2, 2), p, SaxParams(64, 8, 6)).foreach(checkAgainstReference(_, 500))
  }
  test("interleave/deinterleave round-trips at 64 bits") {
    checkAgainstReference(p64, 500)
  }
  test("interleave/deinterleave round-trips for odd bit widths") {
    checkAgainstReference(SaxParams(30, 5, 3), 300) // 15 bits -> 2 bytes
  }
  test("toLong/fromLong round-trips") {
    (0 until 500).foreach { _ =>
      val w = randWord(p)
      assert(InvSAX.fromLong(InvSAX.toLong(w, p), p).sameElements(w))
    }
  }
  test("toLong/fromLong round-trips at the full 64-bit width") {
    (0 until 500).foreach { _ =>
      val w = randWord(p64)
      assert(InvSAX.fromLong(InvSAX.toLong(w, p64), p64).sameElements(w))
    }
  }
  test("Long ordering equals packed-byte z-ordering") {
    (0 until 1000).foreach { _ =>
      val a = randWord(p64); val b = randWord(p64)
      val byteCmp = Integer.signum(compareBytes(interleave(a, p64), interleave(b, p64)))
      val longCmp = java.lang.Long.compare(InvSAX.toLong(a, p64), InvSAX.toLong(b, p64))
      assert(byteCmp == Integer.signum(longCmp))
    }
  }
  test("extreme words map to extreme longs") {
    val lo = Array.fill(p64.w)(0)
    val hi = Array.fill(p64.w)(p64.card - 1)
    assert(InvSAX.toLong(lo, p64) == Long.MinValue)
    assert(InvSAX.toLong(hi, p64) == Long.MaxValue)
  }
  test("z-order places the paper's Figure 4 example correctly") {
    // Figure 2/4: S1=ec, S2=ee, S3=fc, S4=ge with symbols e=4,c=2,f=5,g=6
    // (3-bit alphabet): lexicographic SAX order is S1,S2,S3,S4 but z-order
    // groups (S1,S3) and (S2,S4) — the similar pairs.
    val pp = SaxParams(16, 2, 3)
    val s1 = InvSAX.toLong(Array(4, 2), pp)
    val s2 = InvSAX.toLong(Array(4, 4), pp)
    val s3 = InvSAX.toLong(Array(5, 2), pp)
    val s4 = InvSAX.toLong(Array(6, 4), pp)
    val sorted = Seq(("S1", s1), ("S2", s2), ("S3", s3), ("S4", s4)).sortBy(_._2).map(_._1)
    val pos = sorted.zipWithIndex.toMap
    assert(math.abs(pos("S1") - pos("S3")) == 1, s"S1,S3 adjacent in $sorted")
    assert(math.abs(pos("S2") - pos("S4")) == 1, s"S2,S4 adjacent in $sorted")
  }
  test("sorting by invSAX clusters z-order cells: shared prefixes are contiguous") {
    // All words whose interleaved representation shares a 4-bit prefix must
    // form a contiguous run in sorted order.
    val words = Array.fill(300)(randWord(p))
    val sorted = words.sortBy(InvSAX.toLong(_, p))
    def prefix4(w: Array[Int]): Long = (InvSAX.toLong(w, p) ^ Long.MinValue) >>> 60
    val runs = sorted.map(prefix4).toSeq
    // monotone non-decreasing ⇒ each prefix is one contiguous run
    runs.sliding(2).foreach { s => if (s.length == 2) assert(s(0) <= s(1)) }
  }
  test("neighboring series in z-order are similar on average (locality)") {
    val pp = SaxParams(64, 8, 6)
    val data = Array.tabulate(500)(i => SeriesGen.randomWalk(i, 64))
    val sortedIdx = data.indices.sortBy(i => InvSAX.ofSeries(data(i), pp))
    val neighborDist = sortedIdx.sliding(2).map { s =>
      Series.euclidean(data(s(0)), data(s(1)))
    }.sum / (sortedIdx.length - 1)
    val randomDist = (0 until 499).map { _ =>
      Series.euclidean(data(rnd.nextInt(500)), data(rnd.nextInt(500)))
    }.sum / 499
    assert(neighborDist < randomDist * 0.8,
      s"z-order neighbors ($neighborDist) should be closer than random pairs ($randomDist)")
  }
  test("lexicographic SAX-word order has worse locality than z-order") {
    val pp = SaxParams(64, 8, 6)
    val data = Array.tabulate(500)(i => SeriesGen.randomWalk(i, 64))
    def lexKey(s: Array[Double]): String =
      SAX.sax(s, pp).map(sym => f"$sym%02x").mkString
    def avgNeighborDist(order: Seq[Int]): Double =
      order.sliding(2).map(w => Series.euclidean(data(w(0)), data(w(1)))).sum / (order.length - 1)
    val zOrder = data.indices.sortBy(i => InvSAX.ofSeries(data(i), pp))
    val lexOrder = data.indices.sortBy(i => lexKey(data(i)))
    assert(avgNeighborDist(zOrder) < avgNeighborDist(lexOrder),
      "the paper's premise: z-order neighbors are closer than lexicographic neighbors")
  }
  test("interleave rejects wrong word length") {
    intercept[IllegalArgumentException](InvSAX.toLong(Array(1, 2, 3), p))
  }
  test("toLong rejects words wider than 64 bits") {
    // The limit lives in SaxParams: a 72-bit word never reaches toLong.
    val pWide = intercept[IllegalArgumentException](
      InvSAX.toLong(Array.fill(9)(0), SaxParams(n = 144, w = 9, bits = 8)))
    assert(pWide.getMessage.contains("w·bits must be at most 64"))
  }
  test("ofSeries equals toLong(sax(series))") {
    (0 until 100).foreach { i =>
      val s = SeriesGen.randomWalk(i, 32)
      assert(InvSAX.ofSeries(s, p) == InvSAX.toLong(SAX.sax(s, p), p))
    }
  }

  // The fused kernel against its reference, SAX.sax and toLong, on one
  // series: the same key and the same symbols.
  private def checkSummarize(s: Array[Double], pp: SaxParams): Unit = {
    val syms = Array.fill[Byte](pp.w + 2)(-1) // one guard byte each side
    val key = InvSAX.summarize(s, pp, syms, 1)
    val word = SAX.sax(s, pp)
    assert(key == InvSAX.toLong(word, pp), s"key of ${s.mkString(",")} at $pp")
    assert(syms.slice(1, pp.w + 1).map(_ & 0xff).sameElements(word), s"symbols of ${s.mkString(",")} at $pp")
    assert(syms(0) == -1 && syms(pp.w + 1) == -1, "summarize wrote outside its w symbols")
  }

  /** Summarize `values` as segment means, `w` at a time, with one value
    * per segment (n = w), so that each mean is the value itself.
    */
  private def checkMeans(values: Seq[Double], bits: Int): Unit = {
    val pp = SaxParams(n = 8, w = 8, bits = bits)
    values.grouped(pp.w).foreach(g => checkSummarize(g.padTo(pp.w, 0.0).toArray, pp))
  }

  test("summarize equals SAX.sax on every breakpoint and one ulp either side of it") {
    for (bits <- 1 to 8) {
      val bp = SaxParams(8, 8, bits).breakpoints.toSeq
      checkMeans(bp.flatMap(b => Seq(b, Math.nextUp(b), Math.nextDown(b))), bits)
    }
  }

  test("summarize equals SAX.sax on every grid-cell edge and one ulp either side of it") {
    val edges = (0 to InvSAX.GridCells).map(c => c / InvSAX.GridScale - 4.0)
    for (bits <- Seq(1, 3, 4, 8)) checkMeans(edges.flatMap(e => Seq(e, Math.nextUp(e), Math.nextDown(e))), bits)
  }

  test("summarize equals SAX.sax at the grid's ends, far outside it and at both zeros") {
    val ends = Seq(4.0, -4.0, Math.nextDown(4.0), Math.nextUp(-4.0), Math.nextDown(-4.0), 1e300, -1e300, 0.0, -0.0)
    for (bits <- 1 to 8) checkMeans(ends, bits)
    // Finite values whose segment sum overflows summarize as SAX.sax does.
    val pp = SaxParams(n = 16, w = 8, bits = 8)
    checkSummarize(Array.tabulate(16)(i => if (i < 4) Double.MaxValue else if (i < 8) -Double.MaxValue else 0.5), pp)
  }

  test("summarize equals SAX.sax on random series") {
    val r = new java.util.Random(29)
    for (pp <- Seq(SaxParams(64, 8, 8), SaxParams(64, 16, 4), SaxParams(64, 4, 3), SaxParams(64, 64, 1),
                   SaxParams(64, 1, 8)); i <- 0 until 300) {
      val s = if (i % 3 == 0) SeriesGen.randomWalk(i, 64) else Array.fill(64)(r.nextGaussian() * (1 + i % 5))
      checkSummarize(s, pp)
    }
  }

  test("summarize rejects a NaN or an infinity, naming the value") {
    val pp = SaxParams(64, 8, 8)
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val s = SeriesGen.randomWalk(5, 64)
      s(37) = bad
      val e = intercept[IllegalArgumentException](InvSAX.summarize(s, pp, new Array[Byte](pp.w), 0))
      assert(e.getMessage == s"value 37 is $bad; indexed values must be finite")
      intercept[IllegalArgumentException](InvSAX.ofSeries(s, pp))
    }
  }

  test("summarize rejects a series of the wrong length") {
    val e = intercept[IllegalArgumentException](InvSAX.summarize(new Array[Double](63), p64, new Array[Byte](8), 0))
    assert(e.getMessage.contains("expected a series of 256 values, got 63"))
  }
}
