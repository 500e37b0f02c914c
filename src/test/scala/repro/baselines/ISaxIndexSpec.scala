package repro.baselines

import org.scalatest.funsuite.AnyFunSuite

import repro.core.CoconutTree
import repro.index.BruteForce
import repro.series.{SaxParams, SeriesGen}
import repro.storage.DiskModel

class ISaxIndexSpec extends AnyFunSuite {

  private val p = SaxParams(n = 64, w = 8, bits = 6)
  private val data = SeriesGen.dataset("walk", 1000, 64, seed = 3)
  private val queries = SeriesGen.queries("walk", 20, 64, seed = 3)

  private def build(mat: Boolean, cap: Int = 50, memBytes: Long = 1L << 30,
                    disk: DiskModel = new DiskModel()) =
    ISaxIndex.build(data, p, cap, memBytes, disk, materialized = mat)

  test("index names match the paper's") {
    assert(build(mat = true).name == "ADSFull")
    assert(build(mat = false).name == "ADS+")
  }
  test("every series is routed to exactly one leaf") {
    val t = build(mat = false)
    assert(t.size == 1000)
    assert(t.leafCount > 1)
  }
  test("tree is prefix-consistent: every entry's word matches its leaf prefixes") {
    val t = build(mat = false)
    // Insert routing and query descent follow the same prefix bits, so
    // approximate search for an indexed series reads the leaf that holds it.
    data.indices.foreach { i =>
      val r = t.approxSearch(data(i))
      assert(r.dist < 1e-9, s"series $i should be found in the leaf it was inserted into")
    }
  }
  test("searching for an indexed series finds it at distance zero (approx)") {
    val t = build(mat = true)
    (0 until 50).foreach { i =>
      val r = t.approxSearch(data(i))
      assert(r.dist < 1e-9, s"series $i should be found in its own leaf")
      assert(r.id == i || repro.series.Series.euclidean(data(r.id.toInt), data(i)) < 1e-9)
    }
  }
  test("exact search matches brute force (ADSFull)") {
    val t = build(mat = true)
    for (q <- queries)
      assert(math.abs(t.exactSearch(q).dist - BruteForce.nn(data, q).dist) < 1e-9)
  }
  test("exact search matches brute force (ADS+)") {
    val t = build(mat = false)
    for (q <- queries)
      assert(math.abs(t.exactSearch(q).dist - BruteForce.nn(data, q).dist) < 1e-9)
  }
  test("no leaf exceeds capacity unless words are identical") {
    val t = build(mat = false, cap = 50)
    // capacity invariant is internal; verify via fill factor bound
    assert(t.avgLeafFill <= 1.0 + 1e-9)
  }
  test("prefix splits produce sparse leaves (the paper's ~10% fill claim)") {
    val t = build(mat = false, cap = 50)
    val coconut = CoconutTree.bulkLoad(data, p, 50, 1L << 30, new DiskModel(), materialized = false)
    assert(t.avgLeafFill < 0.6, s"ADS fill was ${t.avgLeafFill}")
    assert(t.avgLeafFill < coconut.avgLeafFill)
  }
  test("ADS uses more leaves and more storage than Coconut-Tree") {
    val t = build(mat = false, cap = 50)
    val coconut = CoconutTree.bulkLoad(data, p, 50, 1L << 30, new DiskModel(), materialized = false)
    assert(t.leafCount > coconut.leafCount)
    assert(t.storagePages >= coconut.storagePages)
  }
  test("construction is dominated by random I/O (top-down insertion)") {
    val disk = new DiskModel()
    build(mat = true, memBytes = 64L * 1024, disk = disk)
    assert(disk.randomOps > 20, s"expected scattered leaf I/O, got ${disk.randomOps}")
  }
  test("tight memory forces more flushes and more random I/O") {
    val ample = new DiskModel(); val tight = new DiskModel()
    build(mat = true, memBytes = 1L << 30, disk = ample)
    build(mat = true, memBytes = 32L * 1024, disk = tight)
    assert(tight.randomOps > ample.randomOps)
  }
  test("materialized construction moves more data than non-materialized") {
    val dM = new DiskModel(); val dN = new DiskModel()
    build(mat = true, memBytes = 256L * 1024, disk = dM)
    build(mat = false, memBytes = 256L * 1024, disk = dN)
    assert(dM.elapsedMs > dN.elapsedMs)
  }
  test("ADS+ materializes leaves adaptively during querying") {
    val disk = new DiskModel()
    val t = build(mat = false, disk = disk)
    val q = queries(0)
    val s0 = disk.snapshot
    t.approxSearch(q)
    val firstTouch = disk.snapshot - s0
    val s1 = disk.snapshot
    t.approxSearch(q)
    val laterTouch = disk.snapshot - s1
    assert(firstTouch.elapsedMs > laterTouch.elapsedMs,
      "first touch pays raw fetches + leaf write; later touches only read the leaf")
  }
  test("incremental inserts build the same answers as a one-shot build") {
    val a = ISaxIndex.build(data.take(400), p, 50, 1L << 30, new DiskModel(), materialized = false)
    a.insert(data.slice(400, 1000))
    assert(a.size == 1000)
    val b = build(mat = false)
    for (q <- queries.take(5))
      assert(math.abs(a.exactSearch(q).dist - b.exactSearch(q).dist) < 1e-9)
  }
  test("a batch holding a series of the wrong length is rejected before any charge or change") {
    for (mat <- Seq(false, true)) {
      val a = build(mat)
      def state = (a.size, a.collectLeaves.map(_.ids.toList), a.disk.snapshot)
      val before = state
      val batch = SeriesGen.dataset("walk", 20, 64, seed = 99)
      for (odd <- Seq(queries(0).take(56), queries(0) ++ queries(0).take(8))) {
        val e = intercept[IllegalArgumentException](a.insert(batch :+ odd))
        assert(e.getMessage.contains(s"series 20 has ${odd.length}"))
        assert(state == before)
      }
      assert(math.abs(a.exactSearch(queries(0)).dist - BruteForce.nn(data, queries(0)).dist) < 1e-9)
    }
  }
  test("an index with more than 8 bits per segment is rejected") {
    val e = intercept[IllegalArgumentException] {
      ISaxIndex.build(data, SaxParams(64, 8, 9), 50, 1L << 30, new DiskModel(), materialized = false)
    }
    assert(e.getMessage.contains("bits per segment must be at most 8"))
  }
}
