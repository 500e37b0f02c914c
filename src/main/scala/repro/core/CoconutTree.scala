package repro.core

import scala.collection.mutable.ArrayBuffer

import repro.index.{Nearest, SearchResult, SeriesIndex}
import repro.series.{InvSAX, SAX, SaxParams, Series}
import repro.storage.{DiskModel, ExternalSort, SimFile}

/** One index entry: sortable summarization + position in the raw file. */
final case class Entry(inv: Long, id: Int)

/** A leaf holding invSAX-sorted entries; `filePos` is its first record's
  * position in the (simulated) index file, used for I/O accounting.
  */
final class Leaf(val capacity: Int, val entries: Array[Entry], val filePos: Long) {
  def key: Long = entries.head.inv
  def occupancy: Int = entries.length
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
    val leaves: ArrayBuffer[Leaf],
    val materialized: Boolean,
    val disk: DiskModel,
    private val rawFile: SimFile,
    private val indexFile: SimFile,
    /** Prefix-split (trie) leaves allocate storage per leaf; median-split
      * leaves pack into one extent (the paper's compactness advantage).
      */
    private val perLeafAlloc: Boolean,
) extends SeriesIndex {
  def size: Int = data.length
  def leafCount: Int = leaves.length
  def avgLeafFill: Double =
    if (leaves.isEmpty) 0.0 else leaves.map(l => l.occupancy.toDouble / l.capacity).sum / leaves.length
  /** Contiguously packed leaves: one extent of occupied bytes (per-leaf
    * allocations for the prefix-split trie variant).
    */
  def storagePages: Long =
    if (perLeafAlloc)
      leaves.map(l => SeriesIndex.pages(l.occupancy.toLong * indexFile.recordBytes)).sum
    else
      SeriesIndex.pages(leaves.map(_.occupancy.toLong).sum * indexFile.recordBytes)

  private var leafKeys: Array[Long] = leaves.map(_.key).toArray
  private def rebuildKeys(): Unit = leafKeys = leaves.map(_.key).toArray

  /** Rightmost leaf whose first key is ≤ `inv` (the leaf `inv` belongs to). */
  private def leafOf(inv: Long): Int = {
    var lo = 0; var hi = leafKeys.length - 1; var ans = 0
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (leafKeys(mid) <= inv) { ans = mid; lo = mid + 1 } else hi = mid - 1
    }
    ans
  }

  private def word(inv: Long): Array[Int] = InvSAX.fromLong(inv, params)

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
    require(radius >= 0, s"radius must be non-negative, got $radius")
    val qPaa = Series.paa(q, params.w)
    val qInv = InvSAX.toLong(SAX.fromPaa(qPaa, params), params)
    val c = leafOf(qInv)
    val window = leaves.slice(math.max(0, c - radius), math.min(leaves.length, c + radius + 1))
    indexFile.readRange(window.head.filePos, window.map(_.occupancy.toLong).sum)
    val entries = window.flatMap(_.entries)
    if (materialized) entries.foreach(e => best.offer(e.id))
    else {
      val cands = entries.map(e => Nearest.Candidate(e.id, e.id, SAX.minDistPaaToSax(qPaa, word(e.inv), params)))
      best.fetch(cands.sortInPlace()(Nearest.byLb), rawFile, Nearest.ApproxPageFetch * (2 * radius + 1))
    }
    best.result
  }

  /** Exact search: CoconutTreeSIMS (Algorithm 5). Approximate search seeds
    * the best-so-far; the in-memory summarization array (aligned with the
    * on-disk leaf order) is scanned, and the unpruned records are fetched
    * in file order — the index file's for CTreeFull, the raw file's for
    * CTree — in one skip-sequential pass (the paper's "synchronized
    * skip-sequential scan"), rather than a random read per candidate in
    * z-order.
    */
  def exactSearch(q: Array[Double], radius: Int): SearchResult = {
    val best = new Nearest(q, data, params.n).seed(approxSearch(q, radius))
    val qPaa = Series.paa(q, params.w)
    val cands = ArrayBuffer.empty[Nearest.Candidate]
    var li = 0
    while (li < leaves.length) {
      val leaf = leaves(li)
      var i = 0
      while (i < leaf.occupancy) {
        val e = leaf.entries(i)
        val md = SAX.minDistPaaToSax(qPaa, word(e.inv), params)
        if (md < best.dist) cands += Nearest.Candidate(if (materialized) leaf.filePos + i else e.id, e.id, md)
        i += 1
      }
      li += 1
    }
    rawFile.resetCursor()
    best.fetch(cands.sortInPlace()(Nearest.byPos), if (materialized) indexFile else rawFile)
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
    val base = data.length
    rawFile.appendRange(batch.length.toLong)                                   // batch lands in the raw file
    rawFile.resetCursor(); rawFile.readRange(base.toLong, batch.length.toLong) // summarize pass
    indexFile.resetCursor(); indexFile.readRange(0, base.toLong)               // read the sorted index
    indexFile.appendRange((base + batch.length).toLong)                        // write the merged index
    data = data ++ batch
    val run = CoconutTree.sortedRun(data, base, params, Array.concat(leaves.map(_.entries).toSeq: _*))
    val cap = leaves.head.capacity
    leaves.clear()
    leaves ++= CoconutTree.pack(run, CoconutTree.fixedCuts(run.length, cap), cap)
    rebuildKeys()
  }
}

object CoconutTree {

  private val byInv: Ordering[Entry] = (a, b) => java.lang.Long.compare(a.inv, b.inv)

  /** Bottom-up bulk load (Algorithm 3): the shared build with leaves packed
    * to `fill`·capacity. When the external sort already wrote the final
    * sorted run in one piece, that write *is* the leaf write.
    *
    * @param memBytes  simulated main-memory budget (drives external sort)
    * @param fill      target leaf fill factor (paper measures 97%)
    */
  def bulkLoad(data: Array[Array[Double]], p: SaxParams, leafCapacity: Int,
               memBytes: Long, disk: DiskModel, materialized: Boolean,
               fill: Double = 1.0): CoconutTree =
    build("CTree", data, p, leafCapacity, memBytes, disk, materialized) { (run, _, indexFile, runs) =>
      if (runs == 1) indexFile.appendRange(run.length.toLong)
      fixedCuts(run.length, math.max(1, (leafCapacity * fill).toInt))
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
                         (layout: (Array[Entry], SimFile, SimFile, Int) => collection.IndexedSeq[Int])
      : CoconutTree = {
    require(data.nonEmpty, "cannot bulk-load an empty dataset")
    val n = data.length.toLong
    val rawBytes = data(0).length * 8
    val recBytes = p.wordBytes + 8 + (if (materialized) rawBytes else 0) // invSAX + offset (+ series)
    val files = kind.toLowerCase + (if (materialized) "-full" else "")
    val rawFile = disk.file("raw", rawBytes)
    val indexFile = disk.file(s"$files-index", recBytes)
    rawFile.scan(n)
    val runs = ExternalSort.charge(disk.file(s"$files-sort", recBytes), n, memBytes)
    val run = sortedRun(data, 0, p, Array.empty)
    val cuts = layout(run, rawFile, indexFile, runs)
    new CoconutTree(kind + (if (materialized) "Full" else ""), p, data,
                    pack(run, cuts, leafCapacity), materialized, disk, rawFile, indexFile,
                    perLeafAlloc = kind == "CTrie")
  }

  /** The invSAX-sorted run: `prefix` followed by the summaries of
    * `data(from until data.length)`, stably sorted, so equal keys keep
    * prefix-first, then raw-file order. A sorted `prefix` makes the sort a
    * merge of the two runs.
    */
  private def sortedRun(data: Array[Array[Double]], from: Int, p: SaxParams,
                        prefix: Array[Entry]): Array[Entry] = {
    val run = java.util.Arrays.copyOf(prefix, prefix.length + data.length - from)
    var i = from
    while (i < data.length) { run(prefix.length + i - from) = Entry(InvSAX.ofSeries(data(i), p), i); i += 1 }
    java.util.Arrays.sort(run, byInv)
    run
  }

  /** Cut points of consecutive groups of `size` entries. */
  private def fixedCuts(n: Int, size: Int): IndexedSeq[Int] = (0 until n by size) :+ n

  /** Leaf k holds `run(cuts(k) until cuts(k + 1))`, at index-file position
    * `cuts(k)`: the leaves are contiguous and in run order.
    */
  private def pack(run: Array[Entry], cuts: collection.IndexedSeq[Int], capacity: Int): ArrayBuffer[Leaf] =
    ArrayBuffer.tabulate(cuts.length - 1)(k =>
      new Leaf(capacity, java.util.Arrays.copyOfRange(run, cuts(k), cuts(k + 1)), cuts(k)))
}
