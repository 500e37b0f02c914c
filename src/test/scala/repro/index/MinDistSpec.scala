package repro.index

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.core.{CoconutTree, CoconutTrie}
import repro.series.{InvSAX, SAX, SaxParams, Series, SeriesGen}
import repro.storage.DiskModel

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

  /** A PAA value: often exactly on a breakpoint, where two regions meet. */
  private def paaValue(p: SaxParams): Gen[Double] = Gen.frequency(
    3 -> Gen.choose(-4.0, 4.0),
    3 -> Gen.oneOf(p.breakpoints.toSeq),
    1 -> Gen.oneOf(-1e6, 1e6, 0.0, -0.0))

  private val cases: Gen[(SaxParams, Array[Double], Array[Int])] = for {
    bits <- Gen.oneOf(3, 6, 8)
    w <- Gen.oneOf(4, 8)
    p = SaxParams(8 * w, w, bits)
    symbol = Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(p.card - 1), 3 -> Gen.choose(0, p.card - 1))
    paa <- Gen.listOfN(w, paaValue(p))
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

  /** A key-sorted store of `m` records around one random word: each record
    * redraws a random number of its symbols' low bits, so neighbours share
    * long key prefixes, and about a quarter repeat the record before them.
    */
  private def sortedStore(p: SaxParams, m: Int, rnd: java.util.Random): Summaries = {
    val base = Array.fill(p.w)(rnd.nextInt(p.card))
    val words = Array.fill(m) {
      val low = rnd.nextInt(p.bits + 1)
      base.map(s => (s >> low << low) | rnd.nextInt(1 << low))
    }
    (1 until m).foreach(i => if (rnd.nextInt(4) == 0) words(i) = words(i - 1))
    val sorted = words.sortBy(InvSAX.toLong(_, p))
    val s = new Summaries(p, sorted.map(InvSAX.toLong(_, p)), Array.range(0, m), new Array[Byte](m * p.w))
    sorted.indices.foreach(i => s.setSymbols(i, sorted(i)))
    s
  }

  private val blocks: Gen[(SaxParams, Array[Double], Summaries, Int)] = for {
    (w, bits) <- Gen.oneOf((4, 3), (4, 6), (8, 3), (8, 8), (16, 4))
    p = SaxParams(8 * w, w, bits)
    paa <- Gen.listOfN(w, paaValue(p))
    m <- Gen.choose(1, 200)
    size <- Gen.oneOf(1, 2, 7, MinDist.Block)
    seed <- Gen.long
  } yield (p, paa.toArray, sortedStore(p, m, new java.util.Random(seed)), size)

  test("a block bound is <= every record bound in the block, and == it for a one-record block") {
    check(Prop.forAll(blocks) { case (p, paa, s, size) =>
      val k = new MinDist(paa, p)
      (0 until s.size by size).forall { b =>
        val e = math.min(b + size, s.size)
        val least = (b until e).map(k.lowerBound(s.syms, _)).min
        val bb = k.blockBound(s, b, e)
        if (e - b == 1) bb == least else bb <= least
      }
    })
  }

  /** An index's summary store, rebuilt from its leaves: keys and ids in
    * leaf order, symbols decoded from the keys.
    */
  private def storeOf(t: CoconutTree): Summaries = {
    val es = t.leaves.flatMap(_.entries)
    val s = new Summaries(t.params, es.map(_.inv).toArray, es.map(_.id).toArray, new Array[Byte](es.size * t.params.w))
    es.indices.foreach(i => s.setSymbols(i, InvSAX.fromLong(es(i).inv, t.params)))
    s
  }

  test("the block pass keeps the per-record scan's survivors on CTree, CTreeFull and CTrie stores, before and after a merge") {
    val p = SaxParams(64, 8, 8)
    val data = SeriesGen.dataset("astronomy", 1300, 64, seed = 3)
    val queries = SeriesGen.queries("astronomy", 10, 64, seed = 3)
    val builders = Seq[Array[Array[Double]] => CoconutTree](
      CoconutTree.bulkLoad(_, p, 50, 1L << 30, new DiskModel(), materialized = false),
      CoconutTree.bulkLoad(_, p, 50, 1L << 30, new DiskModel(), materialized = true),
      CoconutTrie.bulkLoad(_, p, 50, 1L << 30, new DiskModel(), materialized = false))
    var skipped = 0
    for (build <- builders; size <- Seq(40, 1000)) {
      val t = build(data.take(size))
      def check(): Unit = {
        val s = storeOf(t)
        val perRecord = new Summaries(p, Array.emptyLongArray, s.ids, s.syms)
        for (q <- queries) {
          val k = new MinDist(Series.paa(q, p.w), p)
          val approx = t.approxSearch(q, 1).dist
          val median = (0 until s.size).map(k.lowerBound(s.syms, _)).sorted.apply(s.size / 2)
          for (bound <- Seq(approx, median)) {
            val got = new Candidates; k.scan(s, 0, s.size, bound, t.materialized, got)
            val want = new Candidates; k.scan(perRecord, 0, s.size, bound, t.materialized, want)
            val clue = s"${t.name} of ${s.size}, bound $bound"
            assert(got.size == want.size, clue)
            assert(got.pos.take(got.size).toSeq == want.pos.take(want.size).toSeq, clue)
            assert(got.id.take(got.size).toSeq == want.id.take(want.size).toSeq, clue)
            assert(got.lb.take(got.size).toSeq == want.lb.take(want.size).toSeq, clue)
          }
          skipped += (0 until s.size by MinDist.Block).count(b => k.blockBound(s, b, math.min(b + MinDist.Block, s.size)) >= approx)
        }
      }
      check()
      t.bulkInsertMerge(data.slice(size, size + size * 3 / 10))
      check()
    }
    assert(skipped > 0, "no block was skipped, so the block pass went untested")
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
