package repro.util

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class StableSortSpec extends AnyFunSuite {

  test("byKey orders by signed key and keeps the order of equal keys") {
    // Few distinct keys, of both signs, so that most keys repeat.
    val key = Gen.oneOf(Long.MinValue, -3L, 0L, 2L, Long.MaxValue)
    val prop = Prop.forAll(Gen.listOf(key)) { ks =>
      val keys = ks.toArray
      val values = Array.range(0, keys.length)
      StableSort.byKey(keys, values)
      val want = ks.indices.sortBy(ks(_))
      values.toSeq == want && keys.toSeq == want.map(ks(_))
    }
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(r.passed, Pretty.pretty(r))
  }
}
