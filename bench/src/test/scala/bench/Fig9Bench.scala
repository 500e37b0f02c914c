package bench

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.Experiments

/** Fig. 9a — exact query time vs data size. Asserts the paper's shape:
  * the contiguous, compact Coconut indexes beat their ADS counterparts,
  * with a gap that widens as the data grows; the R-tree family trails.
  */
class Fig9aExact extends AnyFunSuite {
  private lazy val Seq(t) = Experiments.figure("9a").tables
  private val ns = Seq(2500, 5000, 10000, 20000).map(n => s"N=$n")

  test("render Fig 9a") { println(t.render) }
  test("CTreeFull beats ADSFull at scale, with a widening gap") {
    // At the smallest size the two are within noise of each other; the
    // paper's claim is about growth.
    assert(t.value("CTreeFull", ns.head) < 1.1 * t.value("ADSFull", ns.head))
    for (n <- ns.tail) assert(t.value("CTreeFull", n) < t.value("ADSFull", n))
    val first = t.value("ADSFull", ns.head) / t.value("CTreeFull", ns.head)
    val last = t.value("ADSFull", ns.last) / t.value("CTreeFull", ns.last)
    assert(last > first, "the gap must widen with data size")
  }
  test("CTree overtakes ADS+ as data grows (non-materialized crossover)") {
    val firstRatio = t.value("CTree", ns.head) / t.value("ADS+", ns.head)
    val lastRatio = t.value("CTree", ns.last) / t.value("ADS+", ns.last)
    assert(lastRatio < firstRatio, "CTree's relative cost must fall with data size")
    assert(t.value("CTree", ns.last) < t.value("ADS+", ns.last))
  }
  test("the R-tree family is the slowest at scale") {
    assert(t.value("R-tree+", ns.last) > t.value("ADS+", ns.last))
    assert(t.value("R-tree", ns.last) > t.value("ADSFull", ns.last))
  }
}

/** Fig. 9b — approximate query time vs data size. */
class Fig9bApprox extends AnyFunSuite {
  private lazy val Seq(t) = Experiments.figure("9b").tables
  private val ns = Seq(2500, 5000, 10000, 20000).map(n => s"N=$n")

  test("render Fig 9b") { println(t.render) }
  test("CTree overtakes ADS+ as data grows") {
    val firstRatio = t.value("CTree", ns.head) / t.value("ADS+", ns.head)
    val lastRatio = t.value("CTree", ns.last) / t.value("ADS+", ns.last)
    assert(lastRatio < firstRatio)
    assert(t.value("CTree", ns.last) < t.value("ADS+", ns.last))
  }
  test("materialized approximate search is faster than non-materialized") {
    ns.foreach { n =>
      assert(t.value("CTreeFull", n) < t.value("CTree", n))
      assert(t.value("ADSFull", n) < t.value("ADS+", n))
    }
  }
  test("Coconut approximate time is flat in data size (balanced index)") {
    assert(t.value("CTreeFull", ns.last) < 2 * t.value("CTreeFull", ns.head))
  }
  test("ADS+ approximate time grows with data size (adaptive splitting)") {
    assert(t.value("ADS+", ns.last) > 2 * t.value("ADS+", ns.head))
  }
}

/** Fig. 9c–9f — approximate time/quality and exact time/visited records,
  * including the CTree(radius) sweep on the large configuration.
  */
class Fig9cdefQuality extends AnyFunSuite {
  private lazy val Seq(c, d, e, f) = Experiments.figure("9cdef").tables

  test("render Fig 9c-f") { println(c.render); println(d.render); println(e.render); println(f.render) }
  test("9d: approximate answers of CTree(1) beat ADSFull and ADS+ on average") {
    assert(d.value("CTree(1)", "ED") < d.value("ADSFull", "ED"))
    assert(d.value("CTree(1)", "ED") < d.value("ADS+", "ED"))
  }
  test("9d: a larger radius improves approximate quality (CTree(10) < CTree(1) < CTree(0))") {
    assert(d.value("CTree(10)", "ED") <= d.value("CTree(1)", "ED"))
    assert(d.value("CTree(1)", "ED") <= d.value("CTree(0)", "ED"))
  }
  test("9c: the larger radius costs approximate-search time") {
    assert(c.value("CTree(10)", "ms") > c.value("CTree(1)", "ms"))
    assert(c.value("CTree(1)", "ms") > c.value("CTree(0)", "ms"))
  }
  test("9e: a radius of 10 does not pay off for exact search (paper's observation)") {
    assert(e.value("CTree(10)", "ms") >= e.value("CTree(1)", "ms"))
  }
  test("9e: exact search is faster on Coconut than on the ADS counterpart") {
    assert(e.value("CTreeFull(1)", "ms") < e.value("ADSFull", "ms"))
    assert(e.value("CTree(1)", "ms") < e.value("ADS+", "ms"))
  }
  test("9f: the Coconut family visits fewer records than the ADS family") {
    for (coco <- Seq("CTreeFull(1)", "CTree(1)", "CTree(10)"); ads <- Seq("ADSFull", "ADS+"))
      assert(f.value(coco, "records") < f.value(ads, "records"),
        s"$coco should refine fewer records than $ads")
  }
}
