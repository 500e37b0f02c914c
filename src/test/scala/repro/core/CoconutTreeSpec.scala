package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.index.{BruteForce, Candidates, Nearest, SearchResult}
import repro.series.{InvSAX, SAX, SaxParams, Series, SeriesGen}
import repro.storage.DiskModel

class CoconutTreeSpec extends AnyFunSuite {

  private val p = SaxParams(n = 64, w = 8, bits = 6)
  private val data = SeriesGen.dataset("walk", 1000, 64, seed = 1)
  private val queries = SeriesGen.queries("walk", 30, 64, seed = 1)
  private def mem(bytes: Long) = bytes

  private def build(mat: Boolean, cap: Int = 50, memBytes: Long = 1L << 30,
                    disk: DiskModel = new DiskModel()) =
    CoconutTree.bulkLoad(data, p, cap, memBytes, disk, materialized = mat)

  test("bulk load packs leaves to the target fill factor") {
    val t = build(mat = false)
    assert(t.leafCount == 20)
    assert(t.leaves.init.forall(_.occupancy == 50))
    assert(t.avgLeafFill > 0.95)
  }
  test("leaves are globally sorted by invSAX") {
    val t = build(mat = false)
    val all = t.leaves.flatMap(_.entries.map(_.inv))
    assert(all == all.sorted)
  }
  test("every series appears exactly once in the index") {
    val t = build(mat = true)
    val ids = t.leaves.flatMap(_.entries.map(_.id)).sorted
    assert(ids == (0 until 1000))
  }
  test("leaf file positions are contiguous after bulk load") {
    val t = build(mat = false)
    var pos = 0L
    t.leaves.foreach { l => assert(l.start == pos); pos += l.occupancy }
  }
  test("index name reflects materialization") {
    assert(build(mat = true).name == "CTreeFull")
    assert(build(mat = false).name == "CTree")
  }
  test("approximate search returns a real series with its true distance") {
    val t = build(mat = true)
    for (q <- queries.take(10)) {
      val r = t.approxSearch(q, radius = 1)
      assert(r.id >= 0 && r.id < 1000)
      assert(math.abs(r.dist - repro.series.Series.euclidean(data(r.id.toInt), q)) < 1e-9)
    }
  }
  test("approximate search quality improves (or holds) with radius") {
    val t = build(mat = true)
    var improved = 0
    for (q <- queries) {
      val d0 = t.approxSearch(q, radius = 0).dist
      val d5 = t.approxSearch(q, radius = 5).dist
      assert(d5 <= d0 + 1e-9)
      if (d5 < d0 - 1e-9) improved += 1
    }
    assert(improved > 0, "radius should strictly help at least once over 30 queries")
  }
  test("exact search matches brute force (materialized)") {
    val t = build(mat = true)
    for (q <- queries) {
      val r = t.exactSearch(q)
      val bf = BruteForce.nn(data, q)
      assert(math.abs(r.dist - bf.dist) < 1e-9, s"got ${r.dist}, want ${bf.dist}")
    }
  }
  test("exact search matches brute force (non-materialized)") {
    val t = build(mat = false)
    for (q <- queries) {
      assert(math.abs(t.exactSearch(q).dist - BruteForce.nn(data, q).dist) < 1e-9)
    }
  }
  test("exact search visits far fewer records than a full scan") {
    val t = build(mat = true)
    val avgVisited = queries.map(t.exactSearch(_).visitedRecords.toDouble).sum / queries.length
    assert(avgVisited < 1000 * 0.6, s"visited $avgVisited of 1000")
  }
  test("construction I/O is dominated by sequential access") {
    val disk = new DiskModel()
    build(mat = true, disk = disk)
    assert(disk.seqBlocks > disk.randomOps * 3,
      s"bulk loading should be sequential: seq=${disk.seqBlocks} rand=${disk.randomOps}")
  }
  test("limited memory triggers external sort passes (more I/O)") {
    val dAmple = new DiskModel(); val dTight = new DiskModel()
    CoconutTree.bulkLoad(data, p, 50, 1L << 30, dAmple, materialized = true)
    CoconutTree.bulkLoad(data, p, 50, 64L * 1024, dTight, materialized = true)
    assert(dTight.blocksWritten > dAmple.blocksWritten)
  }
  test("non-materialized construction moves far fewer bytes than materialized") {
    val dM = new DiskModel(); val dN = new DiskModel()
    CoconutTree.bulkLoad(data, p, 50, 32L * 1024, dM, materialized = true)
    CoconutTree.bulkLoad(data, p, 50, 32L * 1024, dN, materialized = false)
    assert(dN.blocksWritten < dM.blocksWritten)
  }
  test("storage footprint of materialized index covers the data") {
    val t = build(mat = true)
    // 1000 series of 64 doubles = 512KB => at least 8 blocks of 64KB
    assert(t.storagePages >= 8)
  }
  test("bulk insert preserves sorted order and query correctness") {
    val t = build(mat = false, cap = 50)
    val extra = SeriesGen.dataset("walk", 200, 64, seed = 77)
    t.bulkInsertMerge(extra)
    assert(t.size == 1200)
    val all = t.leaves.flatMap(_.entries.map(_.inv))
    assert(all == all.sorted, "global z-order must survive bulk insert")
    val combined = data ++ extra
    for (q <- queries.take(10)) {
      assert(math.abs(t.exactSearch(q).dist - BruteForce.nn(combined, q).dist) < 1e-9)
    }
  }
  test("bulk insert repacks full leaves at contiguous file positions") {
    val t = build(mat = false, cap = 50)
    t.bulkInsertMerge(SeriesGen.dataset("walk", 510, 64, seed = 88))
    assert(t.leafCount == 31)
    assert(t.leaves.init.forall(_.occupancy == 50) && t.leaves.last.occupancy == 10)
    var pos = 0L
    t.leaves.foreach { l => assert(l.start == pos); pos += l.occupancy }
  }
  test("few large batches cost less I/O than many small batches") {
    def runBatches(sizes: Seq[Int]): Double = {
      val disk = new DiskModel()
      val t = CoconutTree.bulkLoad(data, p, 50, 1L << 30, disk, materialized = false)
      val s0 = disk.snapshot
      var seed = 100
      for (sz <- sizes) { t.bulkInsertMerge(SeriesGen.dataset("walk", sz, 64, seed)); seed += 1 }
      disk.elapsedMs - s0.elapsedMs
    }
    val manySmall = runBatches(Seq.fill(50)(20))
    val fewLarge = runBatches(Seq(500, 500))
    assert(fewLarge < manySmall,
      s"bulk loading larger batches must be cheaper: large=$fewLarge small=$manySmall")
  }
  test("a batch holding a series of the wrong length is rejected before any charge or change") {
    for (mat <- Seq(false, true)) {
      val t = build(mat)
      def state = (t.size, t.leaves.map(l => (l.start, l.occupancy, l.entries.toList)), t.disk.snapshot)
      val before = state
      val batch = SeriesGen.dataset("walk", 20, 64, seed = 99)
      for (odd <- Seq(queries(0).take(56), queries(0) ++ queries(0).take(8))) {
        val e = intercept[IllegalArgumentException](t.bulkInsertMerge(batch :+ odd))
        assert(e.getMessage.contains(s"series 20 has ${odd.length}"))
        assert(state == before)
      }
      assert(math.abs(t.exactSearch(queries(0)).dist - BruteForce.nn(data, queries(0)).dist) < 1e-9)
    }
  }
  test("negative radii are rejected before any search") {
    val t = build(mat = false)
    intercept[IllegalArgumentException](t.exactSearch(queries(0), -1))
  }
  test("an oversized radius searches the whole index") {
    val t = build(mat = true)
    val r = t.approxSearch(queries(0), Int.MaxValue)
    assert(r == t.approxSearch(queries(0), t.leafCount) && r.visitedRecords == 1000)
    assert(math.abs(build(mat = false).exactSearch(queries(0), Int.MaxValue).dist -
                    BruteForce.nn(data, queries(0)).dist) < 1e-9)
  }
  test("entries round-trip their SAX words through the stored invSAX") {
    val t = build(mat = false)
    t.leaves.flatMap(_.entries).take(100).foreach { e =>
      val word = InvSAX.fromLong(e.inv, p)
      assert(InvSAX.toLong(word, p) == e.inv)
    }
  }
  test("bulkLoad rejects more than 8 bits per segment and keys wider than 64 bits") {
    val e = intercept[IllegalArgumentException] {
      CoconutTree.bulkLoad(data, SaxParams(64, 8, 9), 50, 1L << 30, new DiskModel(), materialized = false)
    }
    assert(e.getMessage.contains("bits per segment must be at most 8"))
    val wide = SeriesGen.dataset("walk", 50, 72, seed = 3)
    val e2 = intercept[IllegalArgumentException] {
      CoconutTrie.bulkLoad(wide, SaxParams(72, 9, 8), 50, 1L << 30, new DiskModel(), materialized = false)
    }
    assert(e2.getMessage.contains("w·bits must be at most 64"))
  }

  // The SIMS algorithm over boxed entries that the summary store and the
  // MINDIST kernel replaced: it charges the tree's own files, so running
  // it on a twin tree must move the twin's disk exactly as the tree's own
  // search moves the tree's.
  private def refApprox(t: CoconutTree, all: Array[Array[Double]], q: Array[Double], radius: Int): SearchResult = {
    val best = new Nearest(q, all, p.n)
    val qPaa = Series.paa(q, p.w)
    val qInv = InvSAX.toLong(SAX.fromPaa(qPaa, p), p)
    val c = math.max(0, t.leaves.lastIndexWhere(_.key <= qInv))
    val window = t.leaves.slice(math.max(0, c - radius), math.min(t.leafCount, c + radius + 1))
    t.disk.file(if (t.materialized) "ctree-full-index" else "ctree-index", 0)
      .readRange(window.head.start, window.map(_.occupancy.toLong).sum)
    val entries = window.flatMap(_.entries)
    if (t.materialized) entries.foreach(e => best.offer(e.id))
    else {
      val cands = new Candidates
      entries.map(e => (e.id, SAX.minDistPaaToSax(qPaa, InvSAX.fromLong(e.inv, p), p)))
        .sortBy(_._2).foreach { case (id, lb) => cands.add(id, id, lb) }
      best.fetch(cands, t.disk.file("raw", 0), Nearest.ApproxPageFetch * (2 * radius + 1))
    }
    best.result
  }

  private def refExact(t: CoconutTree, all: Array[Array[Double]], q: Array[Double], radius: Int): SearchResult = {
    val best = new Nearest(q, all, p.n).seed(refApprox(t, all, q, radius))
    val qPaa = Series.paa(q, p.w)
    val survivors = for {
      l <- t.leaves; i <- 0 until l.occupancy
      e = l.entries(i)
      lb = SAX.minDistPaaToSax(qPaa, InvSAX.fromLong(e.inv, p), p) if lb < best.dist
    } yield ((if (t.materialized) l.start + i else e.id.toLong).toInt, e.id, lb)
    val cands = new Candidates
    survivors.sortBy(_._1).foreach { case (pos, id, lb) => cands.add(pos, id, lb) }
    val raw = t.disk.file("raw", 0)
    raw.resetCursor()
    best.fetch(cands, if (t.materialized) t.disk.file("ctree-full-index", 0) else raw)
    best.result
  }

  test("single-leaf, all-constant layouts: searches and merges match the reference SIMS") {
    // Constant series inside one SAX region: every key is equal, and the
    // constant queries have MINDIST 0 to every record, far more ties than
    // the approximate fetch cap.
    def const(v: Double) = Array.fill(64)(v)
    val base = Array.tabulate(300)(i => const(0.001 + 0.0001 * ((i * 37) % 300)))
    val batch = Array.tabulate(100)(i => const(0.0015 + 0.0003 * ((i * 53) % 100)))
    val qs = Seq(const(0.0155), const(0.02), const(-0.5), queries(0))
    for (mat <- Seq(false, true)) {
      val t = CoconutTree.bulkLoad(base, p, 1000, 1L << 30, new DiskModel(), materialized = mat)
      val twin = CoconutTree.bulkLoad(base, p, 1000, 1L << 30, new DiskModel(), materialized = mat)
      assert(t.leafCount == 1 && t.leaves.head.entries.map(_.inv).distinct.size == 1)
      def same(all: Array[Array[Double]]): Unit =
        for (q <- qs; radius <- Seq(0, 1, 5)) {
          def delta(tree: CoconutTree)(body: => SearchResult) = {
            val before = tree.disk.snapshot; val r = body; (r, tree.disk.snapshot - before)
          }
          assert(delta(t)(t.approxSearch(q, radius)) == delta(twin)(refApprox(twin, all, q, radius)))
          assert(delta(t)(t.exactSearch(q, radius)) == delta(twin)(refExact(twin, all, q, radius)))
        }
      same(base)
      val merged = base ++ batch
      val oldEntries = t.leaves.flatMap(_.entries)
      t.bulkInsertMerge(batch); twin.bulkInsertMerge(batch)
      val added = batch.indices.map(i => Entry(InvSAX.ofSeries(batch(i), p), base.length + i))
      assert(t.leaves.flatMap(_.entries) == (oldEntries ++ added).sortBy(_.inv))
      assert(t.disk.snapshot == twin.disk.snapshot)
      same(merged)
    }
  }

  test("bulkLoad rejects empty input") {
    intercept[IllegalArgumentException] {
      CoconutTree.bulkLoad(Array.empty, p, 10, 1L << 20, new DiskModel(), materialized = false)
    }
  }
  test("bulkLoad rejects a leaf capacity below 1") {
    for (cap <- Seq(0, -5)) {
      val e = intercept[IllegalArgumentException] {
        CoconutTree.bulkLoad(data, p, cap, 1L << 20, new DiskModel(), materialized = false)
      }
      assert(e.getMessage.contains("leaf capacity must be at least 1"))
      intercept[IllegalArgumentException] {
        CoconutTrie.bulkLoad(data, p, cap, 1L << 20, new DiskModel(), materialized = true)
      }
    }
  }
}
