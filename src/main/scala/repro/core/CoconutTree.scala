package repro.core

import repro.index.{Candidates, MinDist, Nearest, SearchResult, SeriesIndex, Summaries}
import repro.series.{InvSAX, SaxParams, Series}
import repro.storage.{DiskModel, ExternalSort, SimFile}
import repro.util.StableSort

/** One index record as [[Leaf.entries]] reads it from the summary store:
  * its invSAX key and its position in the raw file.
  */
final case class Entry(inv: Long, id: Int)

/** A leaf: `occupancy` consecutive records of the index's summary store,
  * from record `start`, the range between two of the tree's cut points.
  * The leaves are contiguous in store order, so `start` is also the leaf's
  * first record's position in the (simulated) index file, used for I/O
  * accounting.
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

/** Coconut-Tree (paper §4.3, Algorithm 3) and Coconut-Trie (§4.2,
  * Algorithm 2): a contiguous data series index bulk-loaded bottom-up from
  * the invSAX-sorted run (UB-tree bulk loading). Each later batch is merged
  * into that run and the leaves are cut again (§5.3).
  *
  * The two variants differ only in where leaves are cut
  * ([[CoconutTree.cutPoints]]): the tree packs every leaf but the last
  * full, the trie cuts at prefix boundaries. The in-memory structure keeps
  * the cut points (the leaf directory, equivalent to the internal B+-tree
  * levels, which the paper also keeps in memory) plus the in-memory
  * summarization array that `CoconutTreeSIMS` (Algorithm 5) scans; all
  * secondary-storage traffic is charged to [[disk]]. The raw series are
  * the caller's array, not a copy.
  *
  * @param trie         if true, leaves are cut at prefix boundaries (CTrie);
  *                     otherwise into full, fixed-size groups (CTree)
  * @param materialized if true, leaves store the raw series (…Full);
  *                     otherwise they store `(invSAX, offset)` pairs
  */
final class CoconutTree private[core] (
    val params: SaxParams,
    private var data: Array[Array[Double]],
    private var store: Summaries,
    leafCapacity: Int,
    trie: Boolean,
    val materialized: Boolean,
    val disk: DiskModel,
    private val rawFile: SimFile,
    private val indexFile: SimFile,
) extends SeriesIndex {
  /** Leaf k holds store records `cuts(k) until cuts(k + 1)`. */
  private var cuts: Array[Int] = CoconutTree.cutPoints(store, leafCapacity, trie)
  private var leafKeys: Array[Long] = cuts.init.map(store.keys(_))

  def name: String = (if (trie) "CTrie" else "CTree") + (if (materialized) "Full" else "")
  /** The leaves, in key order. */
  def leaves: IndexedSeq[Leaf] =
    (0 until leafCount).map(k => new Leaf(leafCapacity, cuts(k), cuts(k + 1) - cuts(k), store))
  def size: Int = data.length
  def leafCount: Int = cuts.length - 1
  private def occupancies: IndexedSeq[Int] = (0 until leafCount).map(k => cuts(k + 1) - cuts(k))
  def avgLeafFill: Double = SeriesIndex.meanFill(occupancies, leafCapacity)
  /** Tree leaves pack into one extent of occupied bytes; trie leaves
    * allocate their storage per leaf.
    */
  def storagePages: Long =
    if (trie) SeriesIndex.leafPages(occupancies, indexFile.recordBytes)
    else SeriesIndex.pages(store.size.toLong * indexFile.recordBytes)

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
    val window = SeriesIndex.leafWindow(leafKeys, InvSAX.ofSeries(q, params), radius)
    val from = cuts(window.start)
    val until = cuts(window.end + 1)
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
    * expensive for highly fragmented ones — the Fig. 10a trade-off. The
    * merged run is cut again with the variant's own rule, contiguous from
    * position 0, so a merged trie has the leaves of a trie bulk-loaded over
    * the same series. Both variants are charged the same merge; the trie's
    * compaction passes (charged at bulk load) are not repeated. The batch
    * is summarized first, so one holding a NaN or an infinity is rejected
    * before any charge or change.
    */
  def bulkInsertMerge(batch: Array[Array[Double]]): Unit = {
    if (batch.isEmpty) return
    SeriesIndex.checkData(batch, params.n)
    val base = data.length
    val run = CoconutTree.sortedRun(batch, base, params)
    rawFile.appendRange(batch.length.toLong)                                   // batch lands in the raw file
    rawFile.resetCursor(); rawFile.readRange(base.toLong, batch.length.toLong) // summarize pass
    indexFile.resetCursor(); indexFile.readRange(0, base.toLong)               // read the sorted index
    indexFile.appendRange((base + batch.length).toLong)                        // write the merged index
    data = data ++ batch
    store = Summaries.merge(store, run)
    cuts = CoconutTree.cutPoints(store, leafCapacity, trie)
    leafKeys = cuts.init.map(store.keys(_))
  }
}

object CoconutTree {

  /** Bottom-up bulk load of a Coconut-Tree ("CTree", or "CTreeFull" when
    * materialized): every leaf but the last packed full, to `leafCapacity`
    * records.
    *
    * @param memBytes  simulated main-memory budget (drives external sort)
    */
  def bulkLoad(data: Array[Array[Double]], p: SaxParams, leafCapacity: Int,
               memBytes: Long, disk: DiskModel, materialized: Boolean): CoconutTree =
    build(data, p, leafCapacity, memBytes, disk, materialized, trie = false)

  /** The build Coconut-Tree and Coconut-Trie share (Algorithms 2–3, lines
    * 2–13): summarize with one sequential pass over the raw file,
    * external-sort the summaries by invSAX under the memory budget
    * (materialized builds carry the raw series through the sort, which is
    * what Fig. 8a/8d charge for), then cut the sorted run into contiguous
    * leaves with [[cutPoints]]. The leaf write is the variant's own: a
    * tree writes its leaves once, unless the external sort's merge pass
    * already wrote the sorted run, which then is the leaf write; a trie
    * pays for its build and compaction ([[CoconutTrie.chargeBuild]]).
    */
  private[core] def build(data: Array[Array[Double]], p: SaxParams, leafCapacity: Int, memBytes: Long,
                          disk: DiskModel, materialized: Boolean, trie: Boolean): CoconutTree = {
    SeriesIndex.checkData(data, p.n)
    SeriesIndex.checkSizes(leafCapacity, memBytes)
    val run = sortedRun(data, 0, p)
    val n = data.length.toLong
    val rawBytes = p.n * 8
    val recBytes = p.wordBytes + 8 + (if (materialized) rawBytes else 0) // invSAX + offset (+ series)
    val files = (if (trie) "ctrie" else "ctree") + (if (materialized) "-full" else "")
    val rawFile = disk.file("raw", rawBytes)
    val indexFile = disk.file(s"$files-index", recBytes)
    rawFile.scan(n)
    val runs = ExternalSort.charge(disk.file(s"$files-sort", recBytes), n, memBytes)
    if (trie) CoconutTrie.chargeBuild(n, leafCapacity, memBytes, materialized, rawFile, indexFile)
    else if (runs == 1) indexFile.appendRange(n)
    new CoconutTree(p, data, run, leafCapacity, trie, materialized, disk, rawFile, indexFile)
  }

  /** Where the key-sorted `store` is cut into leaves: leaf k holds records
    * `cuts(k) until cuts(k + 1)`. A trie cuts at prefix boundaries
    * ([[CoconutTrie.prefixCuts]]); a tree cuts consecutive groups of
    * `capacity` records, so only its last leaf may be partly filled.
    */
  private[core] def cutPoints(store: Summaries, capacity: Int, trie: Boolean): Array[Int] =
    if (trie) CoconutTrie.prefixCuts(store.keys, store.p.totalBits, capacity)
    else Array.tabulate(((store.size + capacity.toLong - 1) / capacity).toInt)(_ * capacity) :+ store.size

  /** The invSAX-sorted summaries of `series`, whose raw-file ids start at
    * `firstId`, stably sorted, so equal keys keep raw-file order. One
    * [[SeriesIndex.summarize]] per series gives its key and its stored
    * symbols, and rejects a series holding a NaN or an infinity.
    */
  private def sortedRun(series: Array[Array[Double]], firstId: Int, p: SaxParams): Summaries = {
    val m = series.length
    val w = p.w
    val rawSyms = new Array[Byte](m * w)
    val keys = new Array[Long](m)
    val ids = Array.range(firstId, firstId + m)
    var i = 0
    while (i < m) { keys(i) = SeriesIndex.summarize(series, i, p, rawSyms, i * w); i += 1 }
    StableSort.byKey(keys, ids)
    val syms = new Array[Byte](m * w)
    i = 0
    while (i < m) { System.arraycopy(rawSyms, (ids(i) - firstId) * w, syms, i * w, w); i += 1 }
    new Summaries(p, keys, ids, syms)
  }
}
