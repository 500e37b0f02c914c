package repro.baselines

import scala.collection.mutable

import repro.index.{Candidates, Nearest, SearchResult, SeriesIndex}
import repro.series.{SaxParams, Series}
import repro.storage.{DiskModel, ExternalSort, SimFile}

/** R-tree baseline over PAA summarizations, bulk-loaded with the
  * Sort-Tile-Recursive algorithm [24] (paper §5: "R-tree" stores raw series
  * in its leaves, "R-tree+" keeps file offsets instead).
  *
  * STR sorts the whole dataset once per dimension level of the recursion,
  * which is what the paper charges as O(N·D) I/Os and why the R-tree
  * builds poorly compared to Coconut's single z-order sort. Leaves are
  * packed full and written contiguously; internal levels (MBRs) stay in
  * memory like every other index directory in this repo.
  *
  * Nearest-neighbor search is textbook best-first branch-and-bound on MBR
  * MINDIST in PAA space (scaled by √(n/w), a valid ED lower bound);
  * approximate search descends greedily to the single best leaf.
  */
final class RTreeSTR private (
    val name: String,
    val params: SaxParams,
    val data: Array[Array[Double]],
    val materialized: Boolean,
    val disk: DiskModel,
    private val rawFile: SimFile,
    private val indexFile: SimFile,
    val leafCapacity: Int,
    /** Series ids in STR order; leaves are consecutive runs. */
    private val order: Array[Int],
    private val paas: Array[Array[Double]],
    private val leafStarts: Array[Int],
    private val leafMbr: Array[(Array[Double], Array[Double])],
) extends SeriesIndex {

  def size: Int = data.length
  def leafCount: Int = leafStarts.length - 1
  def avgLeafFill: Double =
    SeriesIndex.meanFill((0 until leafCount).map(l => leafStarts(l + 1) - leafStarts(l)), leafCapacity)
  /** STR-packed leaves are contiguous: one extent of occupied bytes. */
  def storagePages: Long =
    SeriesIndex.pages(size.toLong * indexFile.recordBytes)

  /** MINDIST from a query PAA to a leaf MBR, scaled to lower-bound ED. */
  private def mbrMinDist(qPaa: Array[Double], mbr: (Array[Double], Array[Double])): Double = {
    val (lo, hi) = mbr
    var acc = 0.0; var j = 0
    while (j < qPaa.length) {
      val v = qPaa(j)
      val d = if (v < lo(j)) lo(j) - v else if (v > hi(j)) v - hi(j) else 0.0
      acc += d * d
      j += 1
    }
    math.sqrt(acc * params.n / params.w)
  }

  /** Read leaf `l` (contiguous) and refine its members into `best`.
    * `fetchCap` bounds non-materialized raw fetches for approximate search
    * (exact search must verify every unpruned entry).
    */
  private def scanLeaf(l: Int, qPaa: Array[Double], best: Nearest, fetchCap: Int = Int.MaxValue): Unit = {
    indexFile.readRange(leafStarts(l).toLong, (leafStarts(l + 1) - leafStarts(l)).toLong)
    if (materialized) (leafStarts(l) until leafStarts(l + 1)).foreach(i => best.offer(order(i)))
    else {
      // R-tree+: rank leaf members by their PAA lower bound, fetch raw
      // series in that order with early abandon.
      val cands = new Candidates
      for (i <- leafStarts(l) until leafStarts(l + 1)) {
        val id = order(i)
        cands.add(id, id, Series.paaLowerBound(qPaa, paas(id), params.n))
      }
      cands.sortByLb()
      best.fetch(cands, rawFile, fetchCap)
    }
  }

  def approxSearch(q: Array[Double], radius: Int = 0): SearchResult = {
    val best = new Nearest(q, data, params.n)
    val qPaa = Series.paa(q, params.w)
    val leaf = (0 until leafCount).minBy(l => mbrMinDist(qPaa, leafMbr(l)))
    scanLeaf(leaf, qPaa, best, Nearest.approxFetchCap(radius))
    best.result
  }

  def exactSearch(q: Array[Double], radius: Int): SearchResult = {
    val best = new Nearest(q, data, params.n)
    val qPaa = Series.paa(q, params.w)
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
    var l = 0
    while (l < leafCount) { pq.enqueue((mbrMinDist(qPaa, leafMbr(l)), l)); l += 1 }
    while (pq.nonEmpty && pq.head._1 < best.dist) scanLeaf(pq.dequeue()._2, qPaa, best)
    best.result
  }
}

object RTreeSTR {

  /** STR bulk load: recursively sort by one PAA dimension and tile into
    * slabs until all dimensions are consumed; consecutive runs of
    * `leafCapacity` become packed leaves. Charges one external sort of the
    * record file per dimension (the O(N·D) the paper cites).
    */
  def build(data: Array[Array[Double]], p: SaxParams, leafCapacity: Int,
            memBytes: Long, disk: DiskModel, materialized: Boolean): RTreeSTR = {
    SeriesIndex.checkData(data, p.n)
    SeriesIndex.checkSizes(leafCapacity, memBytes)
    val n = data.length
    val rawBytes = p.n * 8
    val paaBytes = p.w * 8 + 8
    val rawFile = disk.file("raw", rawBytes)
    val recBytes = if (materialized) rawBytes + paaBytes else paaBytes
    val indexFile = disk.file(if (materialized) "rtree-index" else "rtreeplus-index", recBytes)

    rawFile.scan(n.toLong) // summarize pass
    val paas = Array.tabulate(n)(i => Series.paa(data(i), p.w))

    val sortFile = disk.file(if (materialized) "rtree-sort" else "rtreeplus-sort", recBytes)
    var d = 0
    while (d < p.w) { ExternalSort.charge(sortFile, n.toLong, memBytes); d += 1 }

    val order = Array.tabulate(n)(identity)
    val nLeaves = (n + leafCapacity - 1) / leafCapacity
    def str(lo: Int, hi: Int, dim: Int): Unit = {
      if (dim >= p.w - 1 || hi - lo <= leafCapacity) {
        val sub = order.slice(lo, hi).sortBy(paas(_)(math.min(dim, p.w - 1)))
        Array.copy(sub, 0, order, lo, sub.length)
      } else {
        val sub = order.slice(lo, hi).sortBy(paas(_)(dim))
        Array.copy(sub, 0, order, lo, sub.length)
        val leavesHere = math.max(1, (hi - lo + leafCapacity - 1) / leafCapacity)
        val slabs = math.max(1, math.ceil(math.pow(leavesHere, 1.0 / (p.w - dim))).toInt)
        val slabSize = math.max(leafCapacity, (hi - lo + slabs - 1) / slabs)
        var s = lo
        while (s < hi) { str(s, math.min(hi, s + slabSize), dim + 1); s += slabSize }
      }
    }
    str(0, n, 0)
    indexFile.appendRange(n.toLong) // packed leaves written contiguously

    val leafStarts = (0 to nLeaves).map(l => math.min(n, l * leafCapacity)).toArray
    val leafMbr = Array.tabulate(nLeaves) { l =>
      val lo = Array.fill(p.w)(Double.PositiveInfinity)
      val hi = Array.fill(p.w)(Double.NegativeInfinity)
      var i = leafStarts(l)
      while (i < leafStarts(l + 1)) {
        val v = paas(order(i)); var j = 0
        while (j < p.w) { if (v(j) < lo(j)) lo(j) = v(j); if (v(j) > hi(j)) hi(j) = v(j); j += 1 }
        i += 1
      }
      (lo, hi)
    }
    new RTreeSTR(if (materialized) "R-tree" else "R-tree+", p, data, materialized, disk,
                 rawFile, indexFile, leafCapacity, order, paas, leafStarts, leafMbr)
  }
}
