package repro.core

import scala.collection.mutable.ArrayBuffer

import repro.series.SaxParams
import repro.storage.{DiskModel, SimFile}

/** Coconut-Trie (paper §4.2, Algorithm 2): bottom-up bulk loading of a
  * *prefix-split* iSAX trie from the invSAX-sorted run, followed by
  * `CompactSubtree`.
  *
  * Because the entries are z-order sorted, the fully-compacted trie is
  * exactly the partition obtained by recursively splitting the sorted run
  * on the next interleaved bit until every piece fits a leaf: every leaf
  * covers one maximal SAX-prefix range with ≤ capacity entries. We build
  * that partition directly (CPU side, [[prefixCuts]]) and charge the I/O of
  * the paper's actual procedure ([[chargeBuild]]). This is what makes
  * Coconut-Trie construction markedly slower than Coconut-Tree (Fig. 8a/8b)
  * even though both start from the same sorted run.
  *
  * The resulting index is a [[CoconutTree]] with `trie` set: it shares the
  * sorted-contiguous-leaf query engine (approximate search + SIMS exact
  * search); only leaf boundary placement and construction cost differ.
  * Prefix splitting cannot balance occupancy, so leaves are sparsely
  * filled — the paper's §4.3 motivation for Coconut-Tree.
  */
object CoconutTrie {

  /** Bulk load a Coconut-Trie ("CTrie", or "CTrieFull" when materialized):
    * the same summarize pass and external sort as Coconut-Tree (lines 2–12
    * of Algorithm 2), with leaves cut at prefix boundaries.
    */
  def bulkLoad(data: Array[Array[Double]], p: SaxParams, leafCapacity: Int,
               memBytes: Long, disk: DiskModel, materialized: Boolean): CoconutTree =
    CoconutTree.build(data, p, leafCapacity, memBytes, disk, materialized, trie = true)

  /** Cut points of the compacted trie's leaves over the ascending invSAX
    * `keys` of `totalBits` bits: the run is split on the next interleaved
    * bit until every piece holds at most `capacity` keys or every bit is
    * used (equal keys stay in one, possibly overfull, leaf).
    */
  private[core] def prefixCuts(keys: Array[Long], totalBits: Int, capacity: Int): Array[Int] = {
    val cuts = ArrayBuffer(0)
    def firstWithBitSet(lo: Int, hi: Int, bit: Int): Int = {
      // keys sorted ⇒ bit value is monotone within a shared prefix
      var a = lo; var b = hi
      while (a < b) {
        val mid = (a + b) >>> 1
        val raw = keys(mid) ^ Long.MinValue
        if (((raw >>> (63 - bit)) & 1L) == 0L) a = mid + 1 else b = mid
      }
      a
    }
    def split(lo: Int, hi: Int, bit: Int): Unit = {
      if (hi - lo <= capacity || bit >= totalBits) cuts += hi
      else {
        val mid = firstWithBitSet(lo, hi, bit)
        if (mid == lo || mid == hi) split(lo, hi, bit + 1)
        else { split(lo, mid, bit + 1); split(mid, hi, bit + 1) }
      }
    }
    split(0, keys.length, 0)
    cuts.toArray
  }

  /** Charge the bottom-up build + CompactSubtree of a trie over `n`
    * records: the fine-grained one-node-per-distinct-word leaves are
    * written once, then the iterative sibling-merge compaction re-reads and
    * re-writes the (contiguous) leaf level until no more leaves merge — one
    * pass per doubling of leaf occupancy, i.e. ~log2(capacity) sequential
    * passes. This is the extra construction work Fig. 8a/8b charge
    * Coconut-Trie for relative to Coconut-Tree.
    */
  private[core] def chargeBuild(n: Long, leafCapacity: Int, memBytes: Long, materialized: Boolean,
                                rawFile: SimFile, indexFile: SimFile): Unit = {
    indexFile.appendRange(n)
    val compactionRounds = math.max(1, (math.log(leafCapacity) / math.log(2)).ceil.toInt)
    var round = 0
    while (round < compactionRounds) {
      indexFile.resetCursor(); indexFile.scan(n)
      indexFile.appendRange(n)
      round += 1
    }
    // CTrieFull additionally moves each raw series from the (unsorted) raw
    // file into its sorted leaf; with the raw data larger than memory this
    // is a cache miss per series (the paper's "extensive I/Os ... on the
    // last pass"), otherwise one sequential pass.
    if (materialized) {
      val rawTotal = n * rawFile.recordBytes
      if (rawTotal <= memBytes) { rawFile.resetCursor(); rawFile.scan(n) }
      else {
        val missRate = 1.0 - memBytes.toDouble / rawTotal
        rawFile.chargeRandom(math.round(n * missRate), write = false)
      }
      indexFile.appendRange(n)
    }
  }
}
