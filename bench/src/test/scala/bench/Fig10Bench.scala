package bench

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.Experiments

/** Fig. 10a — interleaved bulk updates and exact queries under tight
  * memory. The paper's trade-off: top-down ADS+ absorbs highly fragmented
  * updates better, while Coconut-Tree's bulk loading wins once batches
  * grow (fewer merges/splits per series). The crossover's absolute batch
  * size scales with the index:batch size ratio (see EXPERIMENTS.md).
  */
class Fig10aUpdates extends AnyFunSuite {
  private lazy val Seq(t) = Experiments.figure("10a").tables

  test("render Fig 10a") { println(t.render) }
  test("ADS+ wins for fully fragmented (single-series) updates") {
    assert(t.value("ADS+", "batch=1") < t.value("CTree", "batch=1"))
  }
  test("CTree wins once batches grow") {
    assert(t.value("CTree", "batch=100") < t.value("ADS+", "batch=100"))
    assert(t.value("CTree", "batch=1000") < t.value("ADS+", "batch=1000"))
  }
  test("CTree's total cost decreases monotonically with batch size") {
    val vals = Seq(1, 2, 10, 100, 1000).map(b => t.value("CTree", s"batch=$b"))
    vals.sliding(2).foreach { w => if (w.length == 2) assert(w(0) >= w(1)) }
  }
  test("ADS+ is comparatively insensitive to batching") {
    val vals = Seq(1, 2, 10, 100, 1000).map(b => t.value("ADS+", s"batch=$b"))
    assert(vals.max < 2 * vals.min)
  }
}

/** Fig. 10b/10c — complete workload (construction + 100 exact queries) on
  * the astronomy-like and seismic-like datasets.
  */
class Fig10bcRealDatasets extends AnyFunSuite {
  private lazy val Seq(astro) = Experiments.figure("10b").tables
  private lazy val Seq(seis) = Experiments.figure("10c").tables

  test("render Fig 10b/10c") { println(astro.render); println(seis.render) }
  test("constrained memory: Coconut wins the materialized workload on both datasets") {
    assert(astro.value("CTreeFull", "mem=2%") < astro.value("ADSFull", "mem=2%"))
    assert(seis.value("CTreeFull", "mem=2%") < seis.value("ADSFull", "mem=2%"))
  }
  test("constrained memory: Coconut wins the non-materialized workload on both datasets") {
    assert(astro.value("CTree", "mem=2%") <= astro.value("ADS+", "mem=2%"))
    assert(seis.value("CTree", "mem=2%") <= seis.value("ADS+", "mem=2%"))
  }
  test("ADSFull collapses when memory is constrained; CTreeFull does not") {
    for (tt <- Seq(astro, seis)) {
      val adsDegrade = tt.value("ADSFull", "mem=2%") / tt.value("ADSFull", "mem=50%")
      val cocoDegrade = tt.value("CTreeFull", "mem=2%") / tt.value("CTreeFull", "mem=50%")
      assert(adsDegrade > 2 && cocoDegrade < 1.5)
    }
  }
  test("skewed astronomy-like data prunes no better than random walks (paper §5.3)") {
    // The paper reports harder queries on the real datasets (denser data,
    // weaker pruning). Our astronomy stand-in reproduces this; the
    // smoothed seismic stand-in prunes somewhat better at this scale —
    // recorded as a deviation in EXPERIMENTS.md.
    import repro.series.{SaxParams, SeriesGen}
    val p = SaxParams(64, 8, 6)
    def avgVisited(kind: String): Double = {
      val data = SeriesGen.dataset(kind, 4000, 64, seed = 5)
      val qs = SeriesGen.queries(kind, 10, 64, seed = 5)
      val idx = Experiments.build("CTreeFull", data, p, 100, 1L << 30)
      qs.map(idx.exactSearch(_).visitedRecords.toDouble).sum / qs.length
    }
    val walk = avgVisited("walk")
    val astro = avgVisited("astronomy")
    println(f"avg visited records — walk: $walk%.1f, astronomy-like: $astro%.1f")
    assert(astro > walk * 0.9)
  }
}
