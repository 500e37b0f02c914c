package repro.core

import scala.collection.immutable.ArraySeq

import repro.index.{Candidates, MinDist, Nearest, SearchResult, SeriesIndex, Summaries}
import repro.series.{InvSAX, SAX, SaxParams, Series}
import repro.storage.{DiskModel, ExternalSort, SimFile}
import repro.util.StableSort

/** One index record as [[Leaf.entries]] reads it from the summary store:
  * its invSAX key and its position in the raw file.
  */
final case class Entry(inv: Long, id: Int)

/** A leaf: `occupancy` consecutive records of the index's summary store,
  * from record `start`. The leaves are contiguous in store order, so
  * `start` is also the leaf's first record's position in the (simulated)
  * index file, used for I/O accounting.
  */
final class Leaf(val capacity: Int, val start: Int, val occupancy: Int, store: Summaries) {
  def key: Long = store.keys(start)

  /** The leaf's records as entries, read from the store: no copy, one
    * small [[Entry]] made per `apply`.
    */
  val entries: IndexedSeq[Entry] = new IndexedSeq[Entry] {
    def length: Int = occupancy
    def apply(i: Int): Entry = {
      if (i < 0 || i >= occupancy) throw new IndexOutOfBoundsException(s"$i is not in [0, $occupancy)")
      Entry(store.keys(start + i), store.ids(start + i))
    }
  }
}

/** Coconut-Tree (paper §4.3, Algorithm 3): a balanced, contiguous,
  * densely-packed data series index bulk-loaded bottom-up from the
  * invSAX-sorted run (UB-tree bulk loading). Each later batch is merged
  * into that run and the leaves are packed again (§5.3).
  *
  * The in-memory structure keeps the sorted leaf directory (equivalent to
  * the internal B+-tree levels, which the paper also keeps in memory) plus
  * the in-memory summarization array that `CoconutTreeSIMS` (Algorithm 5)
  * scans; all secondary-storage traffic is charged to [[disk]]. The raw
  * series are the caller's array, not a copy.
  *
  * @param materialized if true, leaves store the raw series (CTreeFull);
  *                     otherwise they store `(invSAX, offset)` pairs (CTree)
  */
final class CoconutTree private[core] (
    val name: String,
    val params: SaxParams,
    private var data: Array[Array[Double]],
    private var store: Summaries,
    cuts: collection.IndexedSeq[Int],
    leafCapacity: Int,
    val materialized: Boolean,
    val disk: DiskModel,
    private val rawFile: SimFile,
    private val indexFile: SimFile,
    /** Prefix-split (trie) leaves allocate storage per leaf; median-split
      * leaves pack into one extent (the paper's compactness advantage).
      */
    private val perLeafAlloc: Boolean,
) extends SeriesIndex {
  private var leafDir: Array[Leaf] = CoconutTree.pack(store, cuts, leafCapacity)
  private var leafKeys: Array[Long] = leafDir.map(_.key)

  /** The leaf directory, in key order. */
  def leaves: IndexedSeq[Leaf] = ArraySeq.unsafeWrapArray(leafDir)
  def size: Int = data.length
  def leafCount: Int = leafDir.length
  def avgLeafFill: Double = SeriesIndex.meanFill(leaves.map(_.occupancy), leafCapacity)
  /** Contiguously packed leaves: one extent of occupied bytes (per-leaf
    * allocations for the prefix-split trie variant).
    */
  def storagePages: Long =
    if (perLeafAlloc)
      SeriesIndex.leafPages(leaves.map(_.occupancy), indexFile.recordBytes)
    else
      SeriesIndex.pages(store.size.toLong * indexFile.recordBytes)

  /** Approximate search (Algorithm 4): read the leaf where the query's
    * invSAX would reside plus `radius` neighboring leaves on each side —
    * one sequential range read, since Coconut leaves are contiguous.
    * Materialized leaves already carry the raw series; non-materialized
    * ones fetch raw series in ascending MINDIST order, at most
    * `ApproxPageFetch` per radius step (Algorithm 4 retrieves "the data
    * series in a radius around the insertion point, usually a disk page",
    * not a whole leaf's worth of random raw-file reads).
    */
  def approxSearch(q: Array[Double], radius: Int = 0): SearchResult = {
    val best = new Nearest(q, data, params.n)
    val qPaa = Series.paa(q, params.w)
    val window = SeriesIndex.leafWindow(leafKeys, InvSAX.toLong(SAX.fromPaa(qPaa, params), params), radius)
    val from = leafDir(window.start).start
    val last = leafDir(window.end)
    val until = last.start + last.occupancy
    indexFile.readRange(from.toLong, (until - from).toLong)
    if (materialized) {
      var i = from
      while (i < until) { best.offer(store.ids(i)); i += 1 }
    } else {
      val cands = new Candidates
      new MinDist(qPaa, params).scan(store, from, until, Double.PositiveInfinity, byIndex = false, cands)
      cands.sortByLb()
      best.fetch(cands, rawFile, Nearest.approxFetchCap(radius))
    }
    best.result
  }

  /** Exact search: CoconutTreeSIMS (Algorithm 5). Approximate search seeds
    * the best-so-far; the in-memory summary store (aligned with the
    * on-disk leaf order) is scanned, and the unpruned records are fetched
    * in file order — the index file's for CTreeFull, the raw file's for
    * CTree — in one skip-sequential pass (the paper's "synchronized
    * skip-sequential scan"), rather than a random read per candidate in
    * z-order.
    */
  def exactSearch(q: Array[Double], radius: Int): SearchResult = {
    val best = new Nearest(q, data, params.n).seed(approxSearch(q, radius))
    val cands = new Candidates
    new MinDist(Series.paa(q, params.w), params).scan(store, 0, store.size, best.dist, byIndex = materialized, cands)
    if (!materialized) cands.sortByPos()
    rawFile.resetCursor()
    best.fetch(cands, if (materialized) indexFile else rawFile)
    best.result
  }

  /** Bulk insert by re-running bulk loading over batch ∪ index (the
    * paper's §5.3 updates experiment: each arriving batch is bulk-loaded,
    * merging the sorted batch into the sorted index with one sequential
    * read + write of the whole index). Cheap per series for large batches,
    * expensive for highly fragmented ones — the Fig. 10a trade-off. Leaves
    * are packed full again, contiguous from position 0.
    */
  def bulkInsertMerge(batch: Array[Array[Double]]): Unit = {
    if (batch.isEmpty) return
    SeriesIndex.checkData(batch, params.n)
    val base = data.length
    rawFile.appendRange(batch.length.toLong)                                   // batch lands in the raw file
    rawFile.resetCursor(); rawFile.readRange(base.toLong, batch.length.toLong) // summarize pass
    indexFile.resetCursor(); indexFile.readRange(0, base.toLong)               // read the sorted index
    indexFile.appendRange((base + batch.length).toLong)                        // write the merged index
    data = data ++ batch
    store = Summaries.merge(store, CoconutTree.sortedRun(data, base, params))
    leafDir = CoconutTree.pack(store, CoconutTree.fixedCuts(store.size, leafCapacity), leafCapacity)
    leafKeys = leafDir.map(_.key)
  }
}

object CoconutTree {

  /** Bottom-up bulk load (Algorithm 3): the shared build with every leaf
    * but the last packed full, to `leafCapacity` records. When the external
    * sort already wrote the final sorted run in one piece, that write *is*
    * the leaf write.
    *
    * @param memBytes  simulated main-memory budget (drives external sort)
    */
  def bulkLoad(data: Array[Array[Double]], p: SaxParams, leafCapacity: Int,
               memBytes: Long, disk: DiskModel, materialized: Boolean): CoconutTree =
    build("CTree", data, p, leafCapacity, memBytes, disk, materialized) { (run, _, indexFile, runs) =>
      if (runs == 1) indexFile.appendRange(run.size.toLong)
      fixedCuts(run.size, leafCapacity)
    }

  /** The build Coconut-Tree and Coconut-Trie share (Algorithms 2–3, lines
    * 2–13): summarize with one sequential pass over the raw file,
    * external-sort the summaries by invSAX under the memory budget
    * (materialized builds carry the raw series through the sort, which is
    * what Fig. 8a/8d charge for), then pack the sorted run into contiguous
    * leaves at the cut points `layout` returns. `layout` gets the run, the
    * raw and index files and the number of sort runs, and charges the
    * variant's own leaf writes.
    *
    * @param kind "CTree" or "CTrie"; names the index and its files
    */
  private[core] def build(kind: String, data: Array[Array[Double]], p: SaxParams, leafCapacity: Int,
                          memBytes: Long, disk: DiskModel, materialized: Boolean)
                         (layout: (Summaries, SimFile, SimFile, Int) => collection.IndexedSeq[Int])
      : CoconutTree = {
    SeriesIndex.checkData(data, p.n)
    require(leafCapacity >= 1, s"leaf capacity must be at least 1, got $leafCapacity")
    val n = data.length.toLong
    val rawBytes = p.n * 8
    val recBytes = p.wordBytes + 8 + (if (materialized) rawBytes else 0) // invSAX + offset (+ series)
    val files = kind.toLowerCase + (if (materialized) "-full" else "")
    val rawFile = disk.file("raw", rawBytes)
    val indexFile = disk.file(s"$files-index", recBytes)
    rawFile.scan(n)
    val runs = ExternalSort.charge(disk.file(s"$files-sort", recBytes), n, memBytes)
    val run = sortedRun(data, 0, p)
    val cuts = layout(run, rawFile, indexFile, runs)
    new CoconutTree(kind + (if (materialized) "Full" else ""), p, data, run, cuts, leafCapacity,
                    materialized, disk, rawFile, indexFile, perLeafAlloc = kind == "CTrie")
  }

  /** The invSAX-sorted summaries of `data(from until data.length)`, stably
    * sorted, so equal keys keep raw-file order. Each series' SAX word gives
    * both its key and its stored symbols.
    */
  private def sortedRun(data: Array[Array[Double]], from: Int, p: SaxParams): Summaries = {
    val m = data.length - from
    val w = p.w
    val rawSyms = new Array[Byte](m * w)
    val keys = new Array[Long](m)
    val ids = Array.range(from, data.length)
    var i = 0
    while (i < m) {
      val word = SAX.sax(data(from + i), p)
      var j = 0
      while (j < w) { rawSyms(i * w + j) = word(j).toByte; j += 1 }
      keys(i) = InvSAX.toLong(word, p)
      i += 1
    }
    StableSort.byKey(keys, ids)
    val syms = new Array[Byte](m * w)
    i = 0
    while (i < m) { System.arraycopy(rawSyms, (ids(i) - from) * w, syms, i * w, w); i += 1 }
    new Summaries(p, keys, ids, syms)
  }

  /** Cut points of consecutive groups of `size` entries. */
  private def fixedCuts(n: Int, size: Int): IndexedSeq[Int] = (0 until n by size) :+ n

  /** Leaf k holds records `cuts(k) until cuts(k + 1)` of the store: the
    * leaves are contiguous and in store order.
    */
  private def pack(store: Summaries, cuts: collection.IndexedSeq[Int], capacity: Int): Array[Leaf] =
    Array.tabulate(cuts.length - 1)(k => new Leaf(capacity, cuts(k), cuts(k + 1) - cuts(k), store))
}
