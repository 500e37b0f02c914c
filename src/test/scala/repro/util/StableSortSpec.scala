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

  /** Sort `keys` with values 0, 1, …, against the reference: a stable
    * sort of the indices by signed key.
    */
  private def checkSorts(keys: Array[Long]): Unit = {
    val want = keys.indices.sortBy(keys(_)) // Seq.sortBy is stable
    val ks = keys.clone(); val values = Array.range(0, keys.length)
    StableSort.byKey(ks, values)
    assert(values.toSeq == want && ks.toSeq == want.map(keys(_)), s"${keys.length} keys")
  }

  test("byKey sorts zero, one and two keys") {
    checkSorts(Array.emptyLongArray)
    checkSorts(Array(5L))
    for (a <- Seq(Long.MinValue, -1L, 0L, Long.MaxValue); b <- Seq(Long.MinValue, -1L, 0L, Long.MaxValue))
      checkSorts(Array(a, b))
  }

  test("byKey sorts 100k full-range random keys as a stable reference sort does") {
    val r = new java.util.Random(17)
    checkSorts(Array.fill(100000)(r.nextLong()))
    // Few distinct full-range keys, so that ties are common.
    val pool = Array.fill(50)(r.nextLong())
    checkSorts(Array.fill(100000)(pool(r.nextInt(pool.length))))
  }

  test("byKey sorts keys whose high 4 bytes are all equal") {
    val r = new java.util.Random(18)
    for (high <- Seq(0L, -1L << 32, 0x7fffffffL << 32, Long.MinValue))
      checkSorts(Array.fill(20000)(high | (r.nextInt() & 0xffffffffL)))
    checkSorts(Array.fill(1000)(42L)) // every byte shared: nothing to sort
  }

  test("byKey sorts by top-byte bucket from twice its partition threshold as a stable reference sort does") {
    val r = new java.util.Random(20)
    val n = 2 * StableSort.PartitionMin + 13
    checkSorts(Array.fill(n)(r.nextLong())) // full-range keys
    val pool = Array.fill(50)(r.nextLong())
    checkSorts(Array.fill(n)(pool(r.nextInt(pool.length)))) // 50 distinct values
    checkSorts(Array.fill(n)(0x3aL << 56 | (r.nextLong() >>> 8))) // one top byte: one bucket
    checkSorts(Array.fill(n)(-7L)) // all equal
    checkSorts(Array.fill(n)(if (r.nextBoolean()) Long.MinValue else Long.MaxValue))
  }

  test("Candidates.sortByPos and sortByLb keep insertion order on ties") {
    import repro.index.Candidates
    def filled(): Candidates = {
      val r = new java.util.Random(19)
      val c = new Candidates // few distinct positions and bounds, so most tie
      (0 until 500).foreach(k => c.add(r.nextInt(20), k, r.nextInt(4) * 0.5))
      c
    }
    def rows(c: Candidates) = (0 until c.size).map(k => (c.pos(k), c.id(k), c.lb(k)))
    val added = rows(filled())
    val byLb = filled(); byLb.sortByLb()
    assert(rows(byLb) == added.sortBy(_._3))
    val byPos = filled(); byPos.sortByPos()
    assert(rows(byPos) == added.sortBy(_._1))
  }
}
