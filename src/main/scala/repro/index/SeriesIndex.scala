package repro.index

import repro.series.{InvSAX, SaxParams, Series}
import repro.storage.DiskModel
import repro.util.Pool

/** Result of a similarity-search call.
  *
  * @param id             id (raw-file position) of the answer series
  * @param dist           Euclidean distance from the query to the answer
  * @param visitedRecords raw data-series records fetched to produce the
  *                       answer (the paper's Fig. 9f metric)
  */
final case class SearchResult(id: Long, dist: Double, visitedRecords: Long)

/** Common surface of every cost-modelled index in this repo (the paper's
  * contribution and all baselines). Construction happens in the companion
  * objects (`bulkLoad` / `build`); queries charge their I/O to [[disk]].
  */
trait SeriesIndex {
  /** Display name used in benchmark tables (e.g. "CTreeFull", "ADS+"). */
  def name: String
  /** Summarization parameters the index was built with. */
  def params: SaxParams
  /** Number of indexed series. */
  def size: Int
  /** True if raw series are materialized inside the index leaves. */
  def materialized: Boolean
  /** The disk model this index charges construction and query I/O to. */
  def disk: DiskModel
  /** Number of leaf nodes. */
  def leafCount: Int
  /** Mean leaf fill factor in [0,1] (occupancy / capacity). */
  def avgLeafFill: Double
  /** Index storage footprint in 4 KiB allocation pages (excludes the raw
    * file for non-materialized indexes, matching the paper's Fig. 8c
    * accounting). Contiguous bulk-loaded indexes pack their leaves into
    * one extent; prefix-split indexes allocate per leaf, so sparse leaves
    * waste space — the effect Fig. 8c measures.
    */
  def storagePages: Long

  /** Approximate search (paper Alg. 4): visit the most promising leaf
    * (± `radius` adjacent leaves where the layout has an order) and return
    * the best answer found there.
    */
  def approxSearch(q: Array[Double], radius: Int = 0): SearchResult

  /** Exact nearest-neighbor search (SIMS-style or branch-and-bound,
    * depending on the index). Indexes that seed the search with an
    * approximate answer pass `radius` to [[approxSearch]]; the answer is
    * exact whatever the radius.
    */
  def exactSearch(q: Array[Double], radius: Int = 1): SearchResult
}

object SeriesIndex {
  /** Filesystem allocation granularity used by [[SeriesIndex.storagePages]]. */
  val AllocPageBytes: Long = 4096L
  def pages(bytes: Long): Long = (bytes + AllocPageBytes - 1) / AllocPageBytes

  /** Every search's entry check: the query must have the indexed series'
    * length `n` and hold only finite values.
    */
  def checkQuery(q: Array[Double], n: Int): Unit =
    require(q.length == n && q.forall(java.lang.Double.isFinite),
      s"query must be $n finite values, like the indexed series; " +
      s"got ${q.length} values, ${q.count(v => !java.lang.Double.isFinite(v))} of them NaN or infinite")

  /** Every build's and batch insert's entry check: at least one series,
    * and each of the index's length `n`. Values are not checked for NaN or
    * infinity here, since a pass over every value costs about ten times
    * this one: the summarizing indexes reject them while summarizing
    * ([[summarize]]), before any charge or change, and the others call
    * [[checkFinite]].
    */
  def checkData(data: Array[Array[Double]], n: Int): Unit = {
    require(data.nonEmpty, "cannot index an empty dataset")
    var i = 0
    while (i < data.length) {
      require(data(i).length == n,
        s"every series must have $n values, like the index's SAX parameters; series $i has ${data(i).length}")
      i += 1
    }
  }

  /** Summarize series `from until until` of `data` with
    * [[InvSAX.summarize]]: series i's symbols go to `syms` from `i * p.w`,
    * and its key to `keys(i)` unless `keys` is empty (a store without sort
    * keys, like ADS's). The range runs in chunks on [[Pool]]. A series
    * holding a NaN or an infinite value is rejected with an
    * `IllegalArgumentException` that names it; if several do, the
    * lowest-indexed one is named, as a loop in series order would.
    */
  def summarize(data: Array[Array[Double]], from: Int, until: Int, p: SaxParams,
                keys: Array[Long], syms: Array[Byte]): Unit =
    summarize(data, from, until, p, keys, syms, Pool.MinChunk)

  private[repro] def summarize(data: Array[Array[Double]], from: Int, until: Int, p: SaxParams,
                               keys: Array[Long], syms: Array[Byte], chunk: Int): Unit =
    Pool.chunked(until - from, chunk) { (lo, hi) =>
      var i = from + lo
      while (i < from + hi) {
        val key = try InvSAX.summarize(data(i), p, syms, i * p.w)
                  catch { case e: IllegalArgumentException => throw naming(i, e) }
        if (keys.length != 0) keys(i) = key
        i += 1
      }
    }

  /** The finiteness check of the indexes that do not summarize with
    * [[summarize]]: every value of every series is finite.
    */
  def checkFinite(data: Array[Array[Double]]): Unit = {
    var i = 0
    while (i < data.length) {
      try Series.requireFinite(data(i))
      catch { case e: IllegalArgumentException => throw naming(i, e) }
      i += 1
    }
  }

  private def naming(i: Int, e: IllegalArgumentException) =
    new IllegalArgumentException(s"series $i: ${e.getMessage}", e)

  /** Every build's check of its sizes, before any charge: a leaf holds at
    * least one record, and the memory budget is at least one byte. DSTree,
    * which has no memory budget, checks only its capacity.
    */
  def checkSizes(leafCapacity: Int, memBytes: Long = 1L): Unit = {
    require(leafCapacity >= 1, s"leaf capacity must be at least 1, got $leafCapacity")
    require(memBytes >= 1, s"memory budget must be at least 1 byte, got $memBytes")
  }

  /** Mean leaf fill factor of leaves holding `occupancies` records of
    * `capacity` each, summed in leaf order; 0 for no leaves.
    */
  def meanFill(occupancies: Iterable[Int], capacity: Int): Double =
    if (occupancies.isEmpty) 0.0
    else occupancies.foldLeft(0.0)((sum, occ) => sum + occ.toDouble / capacity) / occupancies.size

  /** Allocation pages of leaves that each allocate their own extent of
    * `occupancy` records of `recordBytes`.
    */
  def leafPages(occupancies: Iterable[Int], recordBytes: Int): Long =
    occupancies.foldLeft(0L)((sum, occ) => sum + pages(occ.toLong * recordBytes))

  /** The leaves approximate search reads (Algorithm 4) in a key-ordered
    * leaf directory: the rightmost leaf whose first key is ≤ `key` (the
    * first leaf if none is) and `radius` leaves on each side, clamped to the
    * directory. `firstKeys(k)` is leaf k's first key, ascending.
    */
  def leafWindow(firstKeys: Array[Long], key: Long, radius: Int): Range.Inclusive = {
    require(radius >= 0, s"radius must be non-negative, got $radius")
    var lo = 0; var hi = firstKeys.length - 1; var c = 0
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (firstKeys(mid) <= key) { c = mid; lo = mid + 1 } else hi = mid - 1
    }
    math.max(0, c - radius) to math.min(firstKeys.length - 1L, c.toLong + radius).toInt
  }
}

object BruteForce {
  /** Ground-truth nearest neighbor by full scan (used by tests/benches). */
  def nn(data: Array[Array[Double]], q: Array[Double]): SearchResult = {
    var bestId = -1L; var best = Double.PositiveInfinity
    var i = 0
    while (i < data.length) {
      val d = repro.series.Series.euclidean(data(i), q)
      if (d < best) { best = d; bestId = i }
      i += 1
    }
    SearchResult(bestId, best, data.length)
  }
}
