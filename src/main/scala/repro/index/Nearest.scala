package repro.index

import repro.series.Series
import repro.storage.SimFile

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
    * at its position and refine it, in the given order, stopping after
    * `cap` reads. In lower-bound order this fetches the most promising
    * records first; in file order it is a skip-sequential scan.
    */
  def fetch(cands: collection.IndexedSeq[Nearest.Candidate], file: SimFile, cap: Int = Int.MaxValue): Unit = {
    var k = 0; var fetched = 0
    while (k < cands.length && fetched < cap) {
      val c = cands(k)
      if (c.lb < dist) { file.readRecord(c.pos); offer(c.id); fetched += 1 }
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

  /** A record to refine: its position in the file it is read from, the id
    * of its raw series, and a lower bound on its distance to the query.
    */
  final case class Candidate(pos: Long, id: Int, lb: Double)

  /** File order, for a skip-sequential scan. */
  val byPos: Ordering[Candidate] = (a, b) => java.lang.Long.compare(a.pos, b.pos)

  /** Lower-bound order. Sort with it stably: MINDIST ties at 0.0 are
    * common, and the collection order among them decides which records a
    * capped fetch reads.
    */
  val byLb: Ordering[Candidate] = (a, b) => java.lang.Double.compare(a.lb, b.lb)
}
