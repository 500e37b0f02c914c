package repro.series

import org.scalatest.funsuite.AnyFunSuite

import repro.util.Gaussian

class SAXSpec extends AnyFunSuite {

  private val rnd = new java.util.Random(7)
  private val p = SaxParams(n = 32, w = 4, bits = 4)

  test("SaxParams validates its arguments") {
    intercept[IllegalArgumentException](SaxParams(10, 3, 4))
    intercept[IllegalArgumentException](SaxParams(32, 4, 0))
    intercept[IllegalArgumentException](SaxParams(32, 4, 16))
    val tooManyBits = intercept[IllegalArgumentException](SaxParams(32, 4, 9))
    assert(tooManyBits.getMessage.contains("bits per segment must be at most 8"))
    val tooWide = intercept[IllegalArgumentException](SaxParams(144, 9, 8)) // 72 bits
    assert(tooWide.getMessage.contains("w·bits must be at most 64"))
  }
  test("SaxParams derived quantities") {
    assert(p.card == 16 && p.totalBits == 16 && p.wordBytes == 2)
    val p2 = SaxParams(256, 8, 8)
    assert(p2.card == 256 && p2.totalBits == 64 && p2.wordBytes == 8)
  }
  test("symbol of very low / very high values hits the extreme regions") {
    assert(SAX.symbol(-100.0, p.breakpoints) == 0)
    assert(SAX.symbol(100.0, p.breakpoints) == p.card - 1)
  }
  test("symbol is the count of breakpoints at or below the value") {
    (0 until 500).foreach { _ =>
      val v = rnd.nextGaussian() * 2
      val expected = p.breakpoints.count(_ <= v)
      assert(SAX.symbol(v, p.breakpoints) == expected)
    }
  }
  test("symbol is monotone in the value") {
    val vs = Array.fill(100)(rnd.nextGaussian()).sorted
    vs.sliding(2).foreach { w =>
      if (w.length == 2)
        assert(SAX.symbol(w(0), p.breakpoints) <= SAX.symbol(w(1), p.breakpoints))
    }
  }
  test("symbol at an exact breakpoint goes to the upper region") {
    assert(SAX.symbol(p.breakpoints(5), p.breakpoints) == 6)
  }
  test("symbols are approximately equi-probable on N(0,1) values") {
    val counts = new Array[Int](p.card)
    (0 until 20000).foreach(_ => counts(SAX.symbol(rnd.nextGaussian(), p.breakpoints)) += 1)
    val expected = 20000.0 / p.card
    counts.foreach(c => assert(math.abs(c - expected) < expected * 0.35))
  }
  test("sax word has one symbol per segment in range") {
    val s = Series.znormalize(Array.fill(32)(rnd.nextGaussian()))
    val word = SAX.sax(s, p)
    assert(word.length == p.w)
    word.foreach(sym => assert(sym >= 0 && sym < p.card))
  }
  test("sax of the figure-1 style series maps segment means to regions") {
    // series with 4 segments of constant values: -2, -0.1, 0.1, 2
    val s = Array.fill(8)(-2.0) ++ Array.fill(8)(-0.1) ++ Array.fill(8)(0.1) ++ Array.fill(8)(2.0)
    val word = SAX.sax(s, p)
    assert(word(0) < word(1) && word(1) <= word(2) && word(2) < word(3))
    assert(word(0) == 0 && word(3) == p.card - 1)
  }
  test("region bounds bracket every value of the region") {
    (0 until 200).foreach { _ =>
      val v = rnd.nextGaussian() * 2
      val sym = SAX.symbol(v, p.breakpoints)
      assert(v >= SAX.regionLow(sym, p) && v <= SAX.regionHigh(sym, p))
    }
  }
  test("region bounds tile the real line") {
    assert(SAX.regionLow(0, p) == Double.NegativeInfinity)
    assert(SAX.regionHigh(p.card - 1, p) == Double.PositiveInfinity)
    (1 until p.card).foreach(s => assert(SAX.regionLow(s, p) == SAX.regionHigh(s - 1, p)))
  }
  test("minDistPaaToSax is zero for a series against its own word") {
    (0 until 50).foreach { _ =>
      val s = Series.znormalize(Array.fill(32)(rnd.nextGaussian()))
      val word = SAX.sax(s, p)
      assert(SAX.minDistPaaToSax(Series.paa(s, p.w), word, p) == 0.0)
    }
  }
  test("minDistPaaToSax lower-bounds the true Euclidean distance") {
    (0 until 500).foreach { _ =>
      val q = SeriesGen.randomWalk(rnd.nextInt(10000), 32)
      val s = SeriesGen.randomWalk(rnd.nextInt(10000) + 20000, 32)
      val lb = SAX.minDistPaaToSax(Series.paa(q, p.w), SAX.sax(s, p), p)
      assert(lb <= Series.euclidean(q, s) + 1e-9)
    }
  }
  test("minDistPaaToSax grows with region separation") {
    val paaLow = Array.fill(p.w)(-3.0)
    val near = Array.fill(p.w)(1)
    val far = Array.fill(p.w)(p.card - 1)
    assert(SAX.minDistPaaToSax(paaLow, far, p) > SAX.minDistPaaToSax(paaLow, near, p))
  }
  test("higher cardinality gives tighter or equal PAA-SAX bounds") {
    val pHi = SaxParams(32, 4, 8)
    var tighterOrEqual = 0
    (0 until 200).foreach { i =>
      val q = SeriesGen.randomWalk(i, 32)
      val s = SeriesGen.randomWalk(i + 5000, 32)
      val lbLo = SAX.minDistPaaToSax(Series.paa(q, 4), SAX.sax(s, p), p)
      val lbHi = SAX.minDistPaaToSax(Series.paa(q, 4), SAX.sax(s, pHi), pHi)
      if (lbHi >= lbLo - 1e-9) tighterOrEqual += 1
    }
    assert(tighterOrEqual == 200)
  }
  test("breakpoints in params match Gaussian.breakpoints") {
    assert(p.breakpoints.sameElements(Gaussian.breakpoints(16)))
  }
}
