package repro.baselines

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.index.{Candidates, MinDist, Nearest, SearchResult, SeriesIndex, Summaries}
import repro.series.{InvSAX, SAX, SaxParams, Series}
import repro.storage.{DiskModel, SimFile}

/** State-of-the-art baseline family: iSAX 2.0-style top-down prefix-split
  * tree with FBL buffering (paper §3.1, Fig. 3), in the two variants the
  * paper evaluates:
  *
  *  - '''ADSFull''' — materialized clustered index: two passes over the raw
  *    file, raw series stored in the leaves;
  *  - '''ADS+''' — non-materialized adaptive index: leaves hold
  *    `(SAX, offset)` pairs and are materialized lazily on first access
  *    during query answering.
  *
  * Construction is top-down: inserts are buffered in memory (budget
  * `memBytes`); when the buffer fills, every touched leaf is read and
  * rewritten — scattered random I/O, because split-produced leaves are not
  * contiguous on disk. A node that overflows splits on the segment whose
  * next unprefixed bit divides its residents most evenly (the paper's
  * policy); prefix splitting cannot guarantee balance, so leaves end up
  * sparsely populated.
  *
  * Exact search is the original SIMS algorithm [62]: in-memory SAX
  * summaries scanned in raw-file order, skip-sequential fetch of unpruned
  * raw records, seeded by an approximate-search best-so-far.
  *
  * The raw series are the caller's array, not a copy, and `store` holds
  * their SAX symbols in raw-file order (ADS has no sort key). A later batch
  * ([[insert]]) is appended to both and inserted through the same buffer,
  * as in the paper's §5.3 updates experiment.
  */
final class ISaxIndex private (
    val params: SaxParams,
    private var data: Array[Array[Double]],
    private var store: Summaries,
    val materialized: Boolean,
    val disk: DiskModel,
    val leafCapacity: Int,
    memBytes: Long,
) extends SeriesIndex {
  import ISaxIndex.Node

  private val sumBytes = params.wordBytes + 8
  private val rawBytes = params.n * 8
  private[baselines] val rawFile: SimFile = disk.file("raw", rawBytes)
  private[baselines] val indexFile: SimFile =
    disk.file(if (materialized) "ads-full-index" else "ads-index",
              if (materialized) rawBytes + sumBytes else sumBytes)
  private val matFile: SimFile = disk.file("ads-mat", rawBytes + sumBytes)

  private val root = mutable.LongMap.empty[Node]
  private val pending = ArrayBuffer.empty[Int] // buffered series ids (the FBL)
  private val bufferCapacity: Int =
    math.max(1, (memBytes / (if (materialized) rawBytes + sumBytes else sumBytes)).toInt)

  def name: String = if (materialized) "ADSFull" else "ADS+"
  def size: Int = data.length

  private[repro] def collectLeaves: Seq[Node] = {
    val out = ArrayBuffer.empty[Node]
    def rec(nd: Node): Unit = if (nd.isLeaf) out += nd else { rec(nd.left); rec(nd.right) }
    root.values.foreach(rec)
    out.toSeq
  }

  def leafCount: Int = collectLeaves.size
  def avgLeafFill: Double = SeriesIndex.meanFill(collectLeaves.map(_.ids.length), leafCapacity)
  /** Split-scattered leaves allocate individually. */
  def storagePages: Long =
    SeriesIndex.leafPages(collectLeaves.map(_.ids.length), indexFile.recordBytes)

  // ------------------------------------------------------------------ build

  /** Insert a batch top-down through the FBL buffer: it is appended to the
    * raw series and takes the next ids. It is summarized first, so a batch
    * holding a series of the wrong length, a NaN or an infinity is rejected,
    * named by its position in the batch, before any charge or change.
    */
  def insert(batch: Array[Array[Double]]): Unit = {
    if (batch.isEmpty) return
    SeriesIndex.checkData(batch, params.n)
    store = ISaxIndex.appended(store.syms, batch, params)
    data = data ++ batch
    rawFile.appendRange(batch.length.toLong) // batch lands in the raw file
    route(batch.length)
  }

  /** Route the last `m` series through the FBL, charging the summarize pass
    * (+ the raw re-read when materialized) and the buffered leaf traffic.
    */
  private def route(m: Int): Unit = {
    val from = size - m
    rawFile.readRange(from.toLong, m.toLong) // summarize pass
    if (materialized) { rawFile.resetCursor(); rawFile.readRange(from.toLong, m.toLong) }
    for (i <- from until size) { pending += i; if (pending.length >= bufferCapacity) flush() }
    flush()
  }

  /** Flush the FBL: route every buffered series to its leaf, then read,
    * merge, split (if overflowing) and rewrite each touched leaf.
    *
    * I/O pattern: a leaf that already lives on disk must be re-read and
    * re-written in place — scattered random I/O (this is the top-down
    * construction penalty). Leaves written for the first time in a flush
    * are appended together sequentially, which is why a buffer that holds
    * the whole dataset (ample memory) builds almost as fast as bulk
    * loading (paper Fig. 8b: ADS+ 6.3 vs CTree 7.8 min with ample RAM).
    */
  private def flush(): Unit = {
    if (pending.isEmpty) return
    val byLeaf = mutable.LinkedHashMap.empty[Node, ArrayBuffer[Int]]
    for (id <- pending) byLeaf.getOrElseUpdate(routeToLeaf(store.syms, id * params.w), ArrayBuffer.empty) += id
    var appended = 0L
    for ((leaf, ids) <- byLeaf) {
      val wasOnDisk = leaf.onDisk
      if (wasOnDisk) indexFile.accessScattered(leaf.ids.length.toLong, write = false)
      leaf.ids ++= ids
      // Split while over capacity, collecting the resulting leaves.
      val result = ArrayBuffer.empty[Node]
      val work = mutable.Queue(leaf)
      while (work.nonEmpty) {
        val nd = work.dequeue()
        if (nd.ids.length > leafCapacity && split(nd)) {
          work.enqueue(nd.left); work.enqueue(nd.right)
        } else result += nd
      }
      result.foreach { l =>
        if (wasOnDisk) indexFile.accessScattered(l.ids.length.toLong, write = true)
        else appended += l.ids.length
        l.onDisk = true
      }
    }
    if (appended > 0) indexFile.appendRange(appended)
    pending.clear()
  }

  /** Follow the word whose symbols are `syms(off until off + w)` from its
    * root child (created if needed) down to its target leaf, taking the
    * word's next prefix bit at each split.
    */
  private def routeToLeaf(syms: Array[Byte], off: Int): Node = {
    var n = root.getOrElseUpdate(ISaxIndex.rootKey(syms, off, params), new Node(Array.fill(params.w)(1)))
    while (!n.isLeaf) n = child(n, syms, off)
    n
  }

  /** The child of internal node `n` that the word's next prefix bit selects. */
  private def child(n: Node, syms: Array[Byte], off: Int): Node = {
    val bit = ((syms(off + n.splitSeg) & 0xff) >>> (params.bits - (n.lens(n.splitSeg) + 1))) & 1
    if (bit == 0) n.left else n.right
  }

  /** Split on the segment whose next unprefixed bit divides the entries
    * most evenly (paper §2/§3.2); false when every segment is fully
    * refined (identical words — the leaf is allowed to overflow).
    */
  private def split(nd: Node): Boolean = {
    var bestSeg = -1; var bestBalance = -1
    var j = 0
    while (j < params.w) {
      if (nd.lens(j) < params.bits) {
        var ones = 0
        nd.ids.foreach { id =>
          if (((store.sym(id, j) >>> (params.bits - (nd.lens(j) + 1))) & 1) == 1) ones += 1
        }
        val balance = math.min(ones, nd.ids.length - ones)
        if (balance > bestBalance) { bestBalance = balance; bestSeg = j }
      }
      j += 1
    }
    if (bestSeg < 0) return false
    val lLens = nd.lens.clone; val rLens = nd.lens.clone
    lLens(bestSeg) += 1; rLens(bestSeg) += 1
    nd.left = new Node(lLens); nd.right = new Node(rLens)
    nd.splitSeg = bestSeg
    nd.ids.foreach { id =>
      val bit = (store.sym(id, bestSeg) >>> (params.bits - (nd.lens(bestSeg) + 1))) & 1
      (if (bit == 0) nd.left else nd.right).ids += id
    }
    nd.ids = ArrayBuffer.empty
    true
  }

  // ----------------------------------------------------------------- query

  /** The most promising leaf for a query word: structural descent when the
    * root subtree exists, otherwise the root child with minimal prefix
    * MINDIST. A split on a bit that all its records share leaves one child
    * empty (and a leaf, since only full leaves split); the descent takes
    * the sibling instead, so the leaf it returns always holds records.
    */
  private def promisingLeaf(syms: Array[Byte]): Node = {
    var n = root.getOrElse(ISaxIndex.rootKey(syms, 0, params),
                           root.minBy { case (key, _) => ISaxIndex.prefixMinDist(syms, key, params) }._2)
    while (!n.isLeaf) {
      val c = child(n, syms, 0)
      n = if (c.isLeaf && c.ids.isEmpty) (if (c eq n.left) n.right else n.left) else c
    }
    n
  }

  /** Read `leaf` and refine every member into `best`. */
  private def scanLeaf(leaf: Node, best: Nearest): Unit = {
    if (materialized) {
      indexFile.accessScattered(leaf.ids.length.toLong, write = false)
    } else if (!leaf.materializedLeaf) {
      // ADS+ materializes the leaf on first touch during query answering:
      // read the minimal leaf, fetch every member's raw series, write the
      // refined leaf.
      indexFile.accessScattered(leaf.ids.length.toLong, write = false)
      leaf.ids.foreach(id => rawFile.readRecord(id.toLong))
      matFile.accessScattered(leaf.ids.length.toLong, write = true)
      leaf.materializedLeaf = true
    } else {
      matFile.accessScattered(leaf.ids.length.toLong, write = false)
    }
    leaf.ids.foreach(best.offer)
  }

  /** Approximate search: the single most promising leaf (`radius` has no
    * meaning for a non-contiguous prefix tree and is ignored).
    */
  def approxSearch(q: Array[Double], radius: Int = 0): SearchResult = {
    val best = new Nearest(q, data, params.n)
    val syms = new Array[Byte](params.w)
    InvSAX.summarize(q, params, syms, 0)
    scanLeaf(promisingLeaf(syms), best)
    best.result
  }

  /** Exact search via SIMS [62]: the summaries whose MINDIST is below the
    * approximate answer, fetched in raw-file order (a series' position in
    * the raw file is its id).
    */
  def exactSearch(q: Array[Double], radius: Int): SearchResult = {
    val best = new Nearest(q, data, params.n).seed(approxSearch(q, radius))
    val cands = new Candidates
    new MinDist(Series.paa(q, params.w), params).scan(store, 0, size, best.dist, byIndex = true, cands)
    best.fetch(cands, rawFile)
    best.result
  }
}

object ISaxIndex {

  /** A prefix-split tree node: per-segment symbol prefixes of `lens(j)`
    * bits each (the prefix bits themselves are the path from the root
    * child). Leaves hold entries; internal nodes split one segment's next
    * bit into two children.
    */
  final class Node(val lens: Array[Int]) {
    /** Ids (raw-file positions) of the series in this leaf. */
    var ids: ArrayBuffer[Int] = ArrayBuffer.empty
    var left: Node = _
    var right: Node = _
    var splitSeg: Int = -1
    var materializedLeaf: Boolean = false
    /** True once the leaf has been flushed to disk at least once; later
      * flushes must read + rewrite it in place (random I/O).
      */
    var onDisk: Boolean = false
    def isLeaf: Boolean = left == null
  }

  /** Root child of the word whose symbols are `syms(off until off + w)`:
    * the top bit of every symbol.
    */
  private[baselines] def rootKey(syms: Array[Byte], off: Int, p: SaxParams): Long = {
    var k = 0L; var j = 0
    while (j < p.w) { k = (k << 1) | (((syms(off + j) & 0xff) >>> (p.bits - 1)) & 1); j += 1 }
    k
  }

  /** MINDIST between the full-resolution word whose symbols are `syms(0
    * until w)` and the one-bit-per-segment prefix regions of the root child
    * `key` (0 where the word's symbol falls inside the region). Segment j's
    * bit is key bit `w − 1 − j`, as [[rootKey]] packs it.
    */
  private[baselines] def prefixMinDist(syms: Array[Byte], key: Long, p: SaxParams): Double = {
    var acc = 0.0; var j = 0
    while (j < p.w) {
      val bit = ((key >>> (p.w - 1 - j)) & 1L).toInt
      val lo = bit << (p.bits - 1)
      val hi = ((bit + 1) << (p.bits - 1)) - 1
      val s = syms(j) & 0xff
      if (s < lo) { val d = SAX.regionLow(lo, p) - SAX.regionHigh(s, p); if (d > 0) acc += d * d }
      else if (s > hi) { val d = SAX.regionLow(s, p) - SAX.regionHigh(hi, p); if (d > 0) acc += d * d }
      j += 1
    }
    math.sqrt(acc * p.n / p.w)
  }

  /** Build an ADSFull (`materialized = true`) or ADS+ (`materialized =
    * false`) index over all of `data` with an FBL buffer of `memBytes`.
    */
  def build(data: Array[Array[Double]], p: SaxParams, leafCapacity: Int,
            memBytes: Long, disk: DiskModel, materialized: Boolean): ISaxIndex = {
    SeriesIndex.checkData(data, p.n)
    SeriesIndex.checkSizes(leafCapacity, memBytes)
    val idx = new ISaxIndex(p, data, appended(Array.emptyByteArray, data, p),
                            materialized, disk, leafCapacity, memBytes)
    idx.route(data.length)
    idx
  }

  /** The store, in raw-file order and without sort keys, of the symbols
    * `prior` followed by those of `series`. A series holding a NaN or an
    * infinity is named by its position in `series`.
    */
  private def appended(prior: Array[Byte], series: Array[Array[Double]], p: SaxParams): Summaries = {
    val syms = new Array[Byte](series.length * p.w)
    SeriesIndex.summarize(series, 0, series.length, p, Array.emptyLongArray, syms)
    new Summaries(p, Array.emptyLongArray, Array.range(0, prior.length / p.w + series.length), prior ++ syms)
  }
}
