package repro.index

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.series.{SAX, SaxParams}

/** The table-driven MINDIST kernel must give exactly the lower bound of
  * [[SAX.minDistPaaToSax]]: any difference in the last bit can move a
  * record across the pruning bound and change which records are fetched.
  */
class MinDistSpec extends AnyFunSuite {

  private def check(prop: Prop): Unit = {
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(r.passed, Pretty.pretty(r))
  }

  /** The kernel's bound for `word`, stored as record 1 of a two-record store. */
  private def kernel(paa: Array[Double], word: Array[Int], p: SaxParams): Double = {
    val s = new Summaries(p, Array.emptyLongArray, Array(0, 1), new Array[Byte](2 * p.w))
    s.setSymbols(0, Array.fill(p.w)(p.card - 1 - word(0)))
    s.setSymbols(1, word)
    new MinDist(paa, p).lowerBound(s.syms, 1)
  }

  private val cases: Gen[(SaxParams, Array[Double], Array[Int])] = for {
    bits <- Gen.oneOf(3, 6, 8)
    w <- Gen.oneOf(4, 8)
    p = SaxParams(8 * w, w, bits)
    value = Gen.frequency(
      3 -> Gen.choose(-4.0, 4.0),
      3 -> Gen.oneOf(p.breakpoints.toSeq),
      1 -> Gen.oneOf(-1e6, 1e6, 0.0, -0.0))
    symbol = Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(p.card - 1), 3 -> Gen.choose(0, p.card - 1))
    paa <- Gen.listOfN(w, value)
    word <- Gen.listOfN(w, symbol)
  } yield (p, paa.toArray, word.toArray)

  test("kernel lower bound == minDistPaaToSax on random PAA vectors and words") {
    check(Prop.forAll(cases) { case (p, paa, word) =>
      kernel(paa, word, p) == SAX.minDistPaaToSax(paa, word, p)
    })
  }

  test("the word overload == the byte-store bound") {
    check(Prop.forAll(cases) { case (p, paa, word) =>
      new MinDist(paa, p).lowerBound(word) == kernel(paa, word, p)
    })
  }

  test("kernel lower bound == minDistPaaToSax when the PAA lies on every breakpoint") {
    for (bits <- Seq(3, 6, 8)) {
      val p = SaxParams(64, 8, bits)
      for (b <- p.breakpoints; s <- 0 until p.card) {
        val paa = Array.tabulate(p.w)(j => if (j % 2 == 0) b else p.breakpoints((j * 7) % p.breakpoints.length))
        val word = Array.tabulate(p.w)(j => (s + j) % p.card)
        assert(kernel(paa, word, p) == SAX.minDistPaaToSax(paa, word, p), s"bits $bits breakpoint $b symbol $s")
      }
    }
  }

  test("scan keeps the records under the bound, by store index or by raw id") {
    val p = SaxParams(32, 4, 6)
    val rnd = new java.util.Random(5)
    val s = new Summaries(p, Array.emptyLongArray, Array.tabulate(200)(i => 1000 + 3 * i), new Array[Byte](200 * p.w))
    (0 until 200).foreach(i => s.setSymbols(i, Array.fill(p.w)(rnd.nextInt(p.card))))
    val paa = Array.fill(p.w)(rnd.nextGaussian())
    val k = new MinDist(paa, p)
    val bound = 1.5
    val want = (0 until 200).filter(i => k.lowerBound(s.syms, i) < bound)
    for (byIndex <- Seq(true, false)) {
      val c = new Candidates
      k.scan(s, 0, 200, bound, byIndex, c)
      assert(c.size == want.length && want.nonEmpty && want.length < 200)
      assert(c.id.take(c.size).toSeq == want.map(s.ids(_)))
      assert(c.pos.take(c.size).toSeq == (if (byIndex) want else want.map(s.ids(_))))
    }
  }

  test("candidate sorts: stable by lower bound, and by position") {
    val entry = Gen.zip(Gen.choose(0, 5).map(_ * 0.25), Gen.choose(0, 1 << 20))
    check(Prop.forAll(Gen.listOf(entry)) { es =>
      val byLb = new Candidates
      es.zipWithIndex.foreach { case ((lb, _), k) => byLb.add(k, k, lb) }
      byLb.sortByLb()
      val distinct = es.map(_._2).distinct
      val byPos = new Candidates
      distinct.zipWithIndex.foreach { case (pos, k) => byPos.add(pos, k, k.toDouble) }
      byPos.sortByPos()
      byLb.id.take(byLb.size).toSeq == es.indices.sortBy(es(_)._1) &&
        byPos.pos.take(byPos.size).toSeq == distinct.sorted &&
        byPos.id.take(byPos.size).toSeq.map(distinct) == distinct.sorted
    })
  }
}
