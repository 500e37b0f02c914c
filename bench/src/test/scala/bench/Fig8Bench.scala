package bench

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.Experiments

/** Fig. 8a — materialized construction vs memory. Asserts the paper's
  * shape: Coconut-Tree-Full dominates; top-down ADSFull degrades sharply
  * as memory shrinks; CTrieFull explodes under tight memory; R-tree pays
  * O(N·D) sorting; DSTree is orders of magnitude slowest.
  */
class Fig8aConstructionMaterialized extends AnyFunSuite {
  private lazy val Seq(t) = Experiments.figure("8a").tables
  private val mems = Experiments.memoryConfigs.map(_._1)

  test("render Fig 8a") { println(t.render) }
  test("CTreeFull builds fastest at every memory configuration") {
    for (m <- mems; s <- t.systems if s != "CTreeFull")
      assert(t.value("CTreeFull", m) <= t.value(s, m),
        s"CTreeFull should beat $s at $m")
  }
  test("ADSFull degrades by >10x from ample to tight memory") {
    assert(t.value("ADSFull", "mem=2%") > 10 * t.value("ADSFull", "ample"))
  }
  test("CTreeFull is insensitive to memory relative to ADSFull") {
    val ctreeRatio = t.value("CTreeFull", "mem=2%") / t.value("CTreeFull", "ample")
    val adsRatio = t.value("ADSFull", "mem=2%") / t.value("ADSFull", "ample")
    assert(ctreeRatio < adsRatio / 10)
  }
  test("CTrieFull explodes under constrained memory (unsorted raw pass)") {
    assert(t.value("CTrieFull", "mem=2%") > 20 * t.value("CTrieFull", "ample"))
  }
  test("DSTree is the slowest build (paper: >24h)") {
    for (m <- mems; s <- t.systems if s != "DSTree")
      assert(t.value("DSTree", m) > t.value(s, m))
  }
  test("R-tree pays roughly one sort per dimension once memory is scarce") {
    assert(t.value("R-tree", "mem=10%") > 3 * t.value("CTreeFull", "mem=10%"))
  }
  test("Vertical's stepwise passes cost more than one bulk-load sort") {
    assert(t.value("Vertical", "ample") > t.value("CTreeFull", "ample"))
  }
}

/** Fig. 8b — non-materialized construction vs memory. */
class Fig8bConstructionNonMaterialized extends AnyFunSuite {
  private lazy val Seq(t) = Experiments.figure("8b").tables
  private val mems = Experiments.memoryConfigs.map(_._1)

  test("render Fig 8b") { println(t.render) }
  test("ADS+ and CTree are comparable with ample memory (paper: 6.3 vs 7.8 min)") {
    assert(t.value("ADS+", "ample") <= 2 * t.value("CTree", "ample"))
  }
  test("CTree overtakes ADS+ once memory is restricted (paper: 8.2 vs 13.4 min)") {
    assert(t.value("CTree", "mem=2%") < t.value("ADS+", "mem=2%"))
  }
  test("CTrie pays for node compaction relative to CTree") {
    mems.foreach(m => assert(t.value("CTrie", m) > t.value("CTree", m)))
  }
  test("CTree is the fastest non-materialized build under tight memory") {
    for (s <- t.systems if s != "CTree")
      assert(t.value("CTree", "mem=2%") <= t.value(s, "mem=2%"))
  }
}

/** Fig. 8c — storage footprint and leaf fill factors. */
class Fig8cSpace extends AnyFunSuite {
  private lazy val Seq(space, fill) = Experiments.figure("8c").tables

  test("render Fig 8c") { println(space.render); println(fill.render) }
  test("CTreeFull has the smallest materialized footprint") {
    for (s <- Seq("CTrieFull", "ADSFull", "R-tree"))
      assert(space.value("CTreeFull", "space") <= space.value(s, "space"))
  }
  test("CTree needs at most half the space of the other non-materialized indexes") {
    for (s <- Seq("CTrie", "ADS+"))
      assert(space.value("CTree", "space") * 2 <= space.value(s, "space"),
        s"paper: median-based CTree uses about half the space of $s")
  }
  test("median-based leaves are >95% full, prefix-based below 60%") {
    assert(fill.value("CTreeFull", "fill") > 0.95)
    assert(fill.value("CTree", "fill") > 0.95)
    assert(fill.value("ADSFull", "fill") < 0.6)
    assert(fill.value("CTrieFull", "fill") < 0.8)
  }
  test("materialized indexes cost at least the raw data size; DSTree is compact") {
    assert(space.value("DSTree", "space") <= space.value("ADSFull", "space"))
    assert(space.value("CTreeFull", "space") > 10.0) // raw is 10.2 MB
  }
}

/** Fig. 8d/8e — fixed memory, growing data. */
class Fig8dGrowingDataMaterialized extends AnyFunSuite {
  private lazy val Seq(t) = Experiments.figure("8d").tables
  private val ns = Seq(2500, 5000, 10000, 20000).map(n => s"N=$n")

  test("render Fig 8d") { println(t.render) }
  test("ADSFull never beats CTreeFull and falls behind as data grows") {
    ns.foreach(n => assert(t.value("CTreeFull", n) <= t.value("ADSFull", n)))
    val firstRatio = t.value("ADSFull", ns.head) / t.value("CTreeFull", ns.head)
    val lastRatio = t.value("ADSFull", ns.last) / t.value("CTreeFull", ns.last)
    assert(lastRatio > firstRatio, "the gap must widen with data size")
  }
}

class Fig8eGrowingDataNonMaterialized extends AnyFunSuite {
  private lazy val Seq(t) = Experiments.figure("8e").tables
  private val ns = Seq(2500, 5000, 10000, 20000).map(n => s"N=$n")

  test("render Fig 8e") { println(t.render) }
  test("ADS+ matches CTree while data fits, then falls behind") {
    assert(t.value("ADS+", ns.head) <= 2 * t.value("CTree", ns.head))
    assert(t.value("ADS+", ns.last) > 5 * t.value("CTree", ns.last))
  }
}

/** Fig. 8f — variable series length at fixed volume. */
class Fig8fSeriesLength extends AnyFunSuite {
  private lazy val Seq(t) = Experiments.figure("8f").tables
  private val lens = Seq(64, 128, 256, 512).map(l => s"len=$l")

  test("render Fig 8f") { println(t.render) }
  test("Coconut variants surpass the ADS ones at every series length") {
    lens.foreach { l =>
      assert(t.value("CTreeFull", l) <= t.value("ADSFull", l))
      assert(t.value("CTree", l) <= t.value("ADS+", l))
    }
  }
}
