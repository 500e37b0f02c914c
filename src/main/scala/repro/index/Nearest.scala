package repro.index

import repro.series.Series
import repro.storage.SimFile
import repro.util.StableSort

/** A query's best-so-far and the one refine step every leaf-based index
  * shares (paper Algorithms 4 and 5): compute a candidate's early-abandoning
  * ED and keep it if it is closer. The caller charges the leaf reads;
  * [[fetch]] charges the per-candidate record reads.
  *
  * @param data the raw series, indexed by id
  * @param n    the indexed series' length; the query is checked against it
  */
final class Nearest(q: Array[Double], data: Array[Array[Double]], n: Int) {
  SeriesIndex.checkQuery(q, n)

  /** Distance, id and fetched-record count of the best answer so far. */
  var dist: Double = Double.PositiveInfinity
  var id: Long = -1L
  var visited: Long = 0L

  /** Start from an approximate answer (SIMS seeds its bound this way). */
  def seed(r: SearchResult): this.type = { dist = r.dist; id = r.id; visited = r.visitedRecords; this }

  /** Refine series `i`: one visited record, kept if closer than [[dist]]. */
  def offer(i: Int): Unit = {
    val d2 = Series.squaredEuclideanAbandon(data(i), q, dist * dist)
    visited += 1
    if (d2 < dist * dist) { dist = math.sqrt(d2); id = i }
  }

  /** Read each candidate whose lower bound is below [[dist]] from `file`
    * at its position and refine it, in the buffer's order, stopping after
    * `cap` reads. In lower-bound order this fetches the most promising
    * records first; in file order it is a skip-sequential scan.
    */
  def fetch(cands: Candidates, file: SimFile, cap: Int = Int.MaxValue): Unit = {
    var k = 0; var fetched = 0
    while (k < cands.size && fetched < cap) {
      if (cands.lb(k) < dist) { file.readRecord(cands.pos(k).toLong); offer(cands.id(k)); fetched += 1 }
      k += 1
    }
  }

  def result: SearchResult = SearchResult(id, dist, visited)
}

object Nearest {

  /** Raw-series fetches per radius step that a non-materialized
    * approximate search will pay ("usually a disk page", Algorithm 4).
    */
  val ApproxPageFetch: Int = 10

  /** Fetch cap of a non-materialized approximate search over `radius`
    * steps each side: `ApproxPageFetch · (2·radius + 1)`, saturating at
    * `Int.MaxValue`, so an oversized radius fetches everything.
    */
  def approxFetchCap(radius: Int): Int = {
    require(radius >= 0, s"radius must be non-negative, got $radius")
    math.min(Int.MaxValue, ApproxPageFetch * (2L * radius + 1)).toInt
  }
}

/** Records to refine, in primitive buffers: for candidate `k`, its position
  * `pos(k)` in the file it is read from, the id `id(k)` of its raw series,
  * and a lower bound `lb(k)` on its distance to the query.
  */
final class Candidates {
  var pos: Array[Int] = new Array[Int](64)
  var id: Array[Int] = new Array[Int](64)
  var lb: Array[Double] = new Array[Double](64)
  var size: Int = 0

  def add(p: Int, i: Int, bound: Double): Unit = {
    if (size == pos.length) {
      pos = java.util.Arrays.copyOf(pos, 2 * size)
      id = java.util.Arrays.copyOf(id, 2 * size)
      lb = java.util.Arrays.copyOf(lb, 2 * size)
    }
    pos(size) = p; id(size) = i; lb(size) = bound
    size += 1
  }

  /** File order, for a skip-sequential scan. */
  def sortByPos(): Unit = sortBy(k => pos(k).toLong)

  /** Lower-bound order, stable: MINDIST ties at 0.0 are common, and the
    * insertion order among them decides which records a capped fetch reads.
    * Lower bounds are non-negative, so their bit patterns order as they do.
    */
  def sortByLb(): Unit = sortBy(k => java.lang.Double.doubleToRawLongBits(lb(k)))

  private def sortBy(key: Int => Long): Unit = {
    val keys = new Array[Long](size)
    var k = 0
    while (k < size) { keys(k) = key(k); k += 1 }
    val order = Array.range(0, size)
    StableSort.byKey(keys, order)
    permute(order)
  }

  /** Reorder so that candidate `k` becomes the old candidate `order(k)`. */
  private def permute(order: Array[Int]): Unit = {
    val p = new Array[Int](size); val i = new Array[Int](size); val l = new Array[Double](size)
    var k = 0
    while (k < size) { p(k) = pos(order(k)); i(k) = id(order(k)); l(k) = lb(order(k)); k += 1 }
    pos = p; id = i; lb = l
  }
}
