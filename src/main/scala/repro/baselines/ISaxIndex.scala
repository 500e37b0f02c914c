package repro.baselines

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.index.{Candidates, MinDist, Nearest, SearchResult, SeriesIndex, Summaries}
import repro.series.{SAX, SaxParams, Series}
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
  * The index is built over a fixed `data` array but may cover only a
  * prefix of it (`size` grows via [[insertSlice]]) — this supports the
  * paper's §5.3 updates experiment, where batches arrive interleaved with
  * queries.
  */
final class ISaxIndex private[baselines] (
    val name: String,
    val params: SaxParams,
    val data: Array[Array[Double]],
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

  /** SAX symbols of all series in raw-file order (filled per slice on
    * insert); the index has no sort key.
    */
  private val store =
    new Summaries(params, Array.emptyLongArray, Array.range(0, data.length), new Array[Byte](data.length * params.w))
  private val root = mutable.LongMap.empty[Node]
  private val pending = ArrayBuffer.empty[Int] // buffered series ids (the FBL)
  private val bufferCapacity: Int =
    math.max(1, (memBytes / (if (materialized) rawBytes + sumBytes else sumBytes)).toInt)

  /** Number of series inserted so far (≤ data.length). */
  var size: Int = 0

  private[baselines] def collectLeaves: Seq[Node] = {
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

  /** Insert `data(from until until)` top-down through the FBL buffer,
    * charging the summarize pass (+ the raw re-read for materialized
    * builds) and the buffered leaf read/write traffic. The slice is
    * summarized into the store first, so a series holding a NaN or an
    * infinity is rejected before any charge or routing.
    */
  def insertSlice(from: Int, until: Int): Unit = {
    require(from == size && from <= until && until <= data.length,
      s"an insert must be a range [from, until) with from = $size (the series inserted so far) and " +
      s"from ≤ until ≤ ${data.length}; got [$from, $until)")
    SeriesIndex.summarize(data, from, until, params, store.keys, store.syms)
    rawFile.readRange(from.toLong, (until - from).toLong) // summarize pass
    if (materialized) { rawFile.resetCursor(); rawFile.readRange(from.toLong, (until - from).toLong) }
    var i = from
    while (i < until) {
      pending += i
      if (pending.length >= bufferCapacity) flush()
      i += 1
    }
    flush()
    size = until
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
  private def promisingLeaf(word: Array[Int]): Node = {
    val syms = word.map(_.toByte)
    var n = root.getOrElse(ISaxIndex.rootKey(syms, 0, params),
                           root.minBy { case (key, _) => ISaxIndex.prefixMinDist(word, key, params) }._2)
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
    require(size > 0, "empty index")
    scanLeaf(promisingLeaf(SAX.sax(q, params)), best)
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

  /** MINDIST between a full-resolution word and the one-bit-per-segment
    * prefix regions of the root child `key` (0 where the word's symbol
    * falls inside the region). Segment j's bit is key bit `w − 1 − j`, as
    * [[rootKey]] packs it.
    */
  private[baselines] def prefixMinDist(word: Array[Int], key: Long, p: SaxParams): Double = {
    var acc = 0.0; var j = 0
    while (j < p.w) {
      val bit = ((key >>> (p.w - 1 - j)) & 1L).toInt
      val lo = bit << (p.bits - 1)
      val hi = ((bit + 1) << (p.bits - 1)) - 1
      val s = word(j)
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
    val idx = empty(data, p, leafCapacity, memBytes, disk, materialized)
    idx.insertSlice(0, data.length)
    idx
  }

  /** An empty index over a pre-allocated `data` array; populate with
    * [[ISaxIndex.insertSlice]] (used by the updates experiment).
    */
  def empty(data: Array[Array[Double]], p: SaxParams, leafCapacity: Int,
            memBytes: Long, disk: DiskModel, materialized: Boolean): ISaxIndex = {
    SeriesIndex.checkData(data, p.n)
    SeriesIndex.checkSizes(leafCapacity, memBytes)
    new ISaxIndex(if (materialized) "ADSFull" else "ADS+",
                  p, data, materialized, disk, leafCapacity, memBytes)
  }
}
