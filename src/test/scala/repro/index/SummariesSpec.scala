package repro.index

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.series.SaxParams

class SummariesSpec extends AnyFunSuite {

  private val p = SaxParams(16, 4, 3)

  /** Sorted keys from `[lo, hi]`: 0 to 80 of them, often exactly 1. */
  private def side(lo: Int, hi: Int): Gen[List[Long]] = for {
    m <- Gen.frequency(1 -> Gen.const(1), 4 -> Gen.choose(0, 80))
    ks <- Gen.listOfN(m, Gen.choose(lo, hi).map(_.toLong))
  } yield ks.sorted

  /** Two key lists over ranges of 21 keys, so many keys are shared; the
    * shift puts a run of one side's records at either end or both.
    */
  private val sides: Gen[(List[Long], List[Long], Long)] = for {
    shift <- Gen.choose(-30, 30)
    a <- side(0, 20)
    b <- side(shift, shift + 20)
    seed <- Gen.long
  } yield (a, b, seed)

  /** A store with `keys`, ids from `firstId` and random symbol bytes. */
  private def store(keys: List[Long], firstId: Int, rnd: java.util.Random): Summaries = {
    val s = new Summaries(p, keys.toArray, Array.range(firstId, firstId + keys.length), new Array[Byte](keys.length * p.w))
    rnd.nextBytes(s.syms)
    s
  }

  test("merge is the stable sort of a followed by b, on all three columns") {
    val prop = Prop.forAll(sides) { case (ak, bk, seed) =>
      val rnd = new java.util.Random(seed)
      val a = store(ak, 0, rnd)
      val b = store(bk, 1000, rnd)
      val want = ((0 until a.size).map((a, _)) ++ (0 until b.size).map((b, _))).sortBy { case (s, i) => s.keys(i) }
      val got = Summaries.merge(a, b)
      got.keys.toSeq == want.map { case (s, i) => s.keys(i) } &&
        got.ids.toSeq == want.map { case (s, i) => s.ids(i) } &&
        got.syms.toSeq == want.flatMap { case (s, i) => s.syms.slice(i * p.w, (i + 1) * p.w) }
    }
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(r.passed, Pretty.pretty(r))
  }
}
