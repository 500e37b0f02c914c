package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.index.BruteForce
import repro.series.{SaxParams, SeriesGen}
import repro.storage.DiskModel

class CoconutTrieSpec extends AnyFunSuite {

  private val p = SaxParams(n = 64, w = 8, bits = 6)
  private val data = SeriesGen.dataset("walk", 1000, 64, seed = 2)
  private val queries = SeriesGen.queries("walk", 20, 64, seed = 2)

  private def build(mat: Boolean, cap: Int = 50, disk: DiskModel = new DiskModel()) =
    CoconutTrie.bulkLoad(data, p, cap, 1L << 30, disk, materialized = mat)

  test("index name reflects materialization") {
    assert(build(mat = true).name == "CTrieFull")
    assert(build(mat = false).name == "CTrie")
  }
  test("leaves are globally sorted by invSAX") {
    val t = build(mat = false)
    val all = t.leaves.flatMap(_.entries.map(_.inv))
    assert(all == all.sorted)
  }
  test("every series appears exactly once") {
    val t = build(mat = false)
    assert(t.leaves.flatMap(_.entries.map(_.id)).sorted == (0 until 1000))
  }
  test("no leaf exceeds capacity unless its entries share one SAX word") {
    val t = build(mat = false, cap = 50)
    t.leaves.filter(_.occupancy > 50).foreach { l =>
      assert(l.entries.map(_.inv).distinct.size == 1)
    }
  }
  test("leaves respect prefix boundaries: each leaf spans one z-order subtree") {
    val t = build(mat = false, cap = 50)
    // Number of leading key bits two keys share.
    def lcp(a: Long, b: Long): Int = java.lang.Long.numberOfLeadingZeros(a ^ b)
    // Neighbouring leaves A and B diverge above both leaves' own prefixes:
    // the keys that straddle the cut share fewer bits than either leaf's
    // first and last key do.
    t.leaves.sliding(2).foreach { case Seq(a, b) =>
      val (aFirst, aLast) = (a.entries.head.inv, a.entries.last.inv)
      val (bFirst, bLast) = (b.entries.head.inv, b.entries.last.inv)
      val across = lcp(aLast, bFirst)
      assert(across < lcp(aFirst, aLast) && across < lcp(bFirst, bLast),
        s"leaves at ${a.start} and ${b.start} share a $across-bit prefix across their cut")
    }
  }
  test("prefix splitting yields lower fill than median splitting") {
    val trie = build(mat = false, cap = 50)
    val disk = new DiskModel()
    val tree = CoconutTree.bulkLoad(data, p, 50, 1L << 30, disk, materialized = false)
    assert(trie.avgLeafFill < tree.avgLeafFill,
      s"trie fill ${trie.avgLeafFill} should be below tree fill ${tree.avgLeafFill}")
  }
  test("prefix splitting yields more leaves than median splitting") {
    val trie = build(mat = false, cap = 50)
    val tree = CoconutTree.bulkLoad(data, p, 50, 1L << 30, new DiskModel(), materialized = false)
    assert(trie.leafCount > tree.leafCount)
  }
  test("exact search matches brute force (non-materialized)") {
    val t = build(mat = false)
    for (q <- queries)
      assert(math.abs(t.exactSearch(q).dist - BruteForce.nn(data, q).dist) < 1e-9)
  }
  test("exact search matches brute force (materialized)") {
    val t = build(mat = true)
    for (q <- queries)
      assert(math.abs(t.exactSearch(q).dist - BruteForce.nn(data, q).dist) < 1e-9)
  }
  test("approximate search returns real distances") {
    val t = build(mat = true)
    for (q <- queries.take(5)) {
      val r = t.approxSearch(q, 0)
      assert(math.abs(r.dist - repro.series.Series.euclidean(data(r.id.toInt), q)) < 1e-9)
    }
  }
  test("trie construction costs more I/O than tree construction (compaction)") {
    val dTrie = new DiskModel(); val dTree = new DiskModel()
    CoconutTrie.bulkLoad(data, p, 50, 1L << 30, dTrie, materialized = false)
    CoconutTree.bulkLoad(data, p, 50, 1L << 30, dTree, materialized = false)
    assert(dTrie.elapsedMs > dTree.elapsedMs,
      s"trie ${dTrie.elapsedMs}ms should exceed tree ${dTree.elapsedMs}ms")
  }
  test("materialized trie construction explodes under limited memory") {
    val ample = new DiskModel(); val tight = new DiskModel()
    CoconutTrie.bulkLoad(data, p, 50, 1L << 30, ample, materialized = true)
    CoconutTrie.bulkLoad(data, p, 50, 64L * 1024, tight, materialized = true)
    assert(tight.randomOps > ample.randomOps + 500,
      "the unsorted-raw-to-sorted-leaves pass must become random under tight memory")
  }
  test("a merged trie equals a trie bulk-loaded over the same series") {
    val extra = SeriesGen.dataset("walk", 500, 64, seed = 12)
    for (mat <- Seq(false, true)) {
      val merged = build(mat)
      merged.bulkInsertMerge(extra)
      val loaded = CoconutTrie.bulkLoad(data ++ extra, p, 50, 1L << 30, new DiskModel(), materialized = mat)
      def layout(t: CoconutTree) = (t.name, t.storagePages, t.leaves.map(l => (l.start, l.occupancy)))
      assert(layout(merged) == layout(loaded), s"materialized = $mat")
    }
  }
  test("trie uses more storage than tree for the same data") {
    val trie = build(mat = false, cap = 50)
    val tree = CoconutTree.bulkLoad(data, p, 50, 1L << 30, new DiskModel(), materialized = false)
    assert(trie.storagePages >= tree.storagePages)
  }
}
