package repro.baselines

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.index.{Nearest, SearchResult, SeriesIndex}
import repro.series.SaxParams
import repro.storage.{DiskModel, SimFile}

/** DSTree baseline [56]: a data-adaptive segmentation tree built through
  * one-by-one top-down insertion, with per-segment (mean, stddev) bounds
  * giving EAPCA-style lower bounds on ED.
  *
  * Simplification vs. the original (documented in DESIGN.md): segmentation
  * is fixed at the `w` equal segments of the SAX configuration rather than
  * re-segmented adaptively per node; splits pick the segment with the
  * widest mean spread and cut at the median mean (the original's
  * mean-split policy). The cost profile the paper reports is preserved:
  * unbuffered top-down inserts (one random leaf read + write per series)
  * and split re-reads make it by far the slowest build (Fig. 8a, ">24h"),
  * while median mean-splits keep leaves ≥ half full, giving the small
  * storage footprint of Fig. 8c.
  *
  * The lower bound used for pruning: for any series s in a node,
  * ED(q,s)² ≥ Σ_j L·(Δmean_j² + Δstd_j²), where Δ· is the distance from
  * the query's segment statistic to the node's [lo,hi] range — valid
  * because ‖x−y‖² = L(mx−my)² + ‖x̂−ŷ‖² ≥ L(mx−my)² + L(sx−sy)² per
  * segment.
  */
final class DSTree private (
    val params: SaxParams,
    val data: Array[Array[Double]],
    private val root: DSTree.Node,
    val disk: DiskModel,
    private val indexFile: SimFile,
    val leafCapacity: Int,
) extends SeriesIndex {
  import DSTree.Node

  def name: String = "DSTree"
  def materialized: Boolean = true
  def size: Int = data.length

  private def collectLeaves: Seq[Node] = {
    val out = ArrayBuffer.empty[Node]
    def rec(n: Node): Unit = if (n.isLeaf) out += n else { rec(n.left); rec(n.right) }
    rec(root)
    out.toSeq
  }
  def leafCount: Int = collectLeaves.size
  def avgLeafFill: Double = SeriesIndex.meanFill(collectLeaves.map(_.ids.length), leafCapacity)
  def storagePages: Long =
    SeriesIndex.leafPages(collectLeaves.map(_.ids.length), indexFile.recordBytes)

  /** EAPCA-style lower bound from query segment stats to a node's ranges. */
  private def nodeLb(qMean: Array[Double], qStd: Array[Double], n: Node): Double = {
    val L = params.n / params.w
    var acc = 0.0; var j = 0
    while (j < params.w) {
      val dm = if (qMean(j) < n.loMean(j)) n.loMean(j) - qMean(j)
               else if (qMean(j) > n.hiMean(j)) qMean(j) - n.hiMean(j) else 0.0
      val ds = if (qStd(j) < n.loStd(j)) n.loStd(j) - qStd(j)
               else if (qStd(j) > n.hiStd(j)) qStd(j) - n.hiStd(j) else 0.0
      acc += L * (dm * dm + ds * ds)
      j += 1
    }
    math.sqrt(acc)
  }

  /** Read `leaf` and refine every member into `best`. */
  private def scanLeaf(leaf: Node, best: Nearest): Unit = {
    indexFile.accessScattered(leaf.ids.length.toLong, write = false)
    leaf.ids.foreach(best.offer)
  }

  def approxSearch(q: Array[Double], radius: Int = 0): SearchResult = {
    val best = new Nearest(q, data, params.n)
    val (qm, qs) = DSTree.segmentStats(q, params.w)
    var n = root
    while (!n.isLeaf) n = if (nodeLb(qm, qs, n.left) <= nodeLb(qm, qs, n.right)) n.left else n.right
    scanLeaf(n, best)
    best.result
  }

  def exactSearch(q: Array[Double], radius: Int): SearchResult = {
    val best = new Nearest(q, data, params.n).seed(approxSearch(q, radius))
    val (qm, qs) = DSTree.segmentStats(q, params.w)
    val pq = mutable.PriorityQueue.empty[(Double, Node)](Ordering.by(-_._1))
    pq.enqueue((nodeLb(qm, qs, root), root))
    while (pq.nonEmpty && pq.head._1 < best.dist) {
      val n = pq.dequeue()._2
      if (n.isLeaf) scanLeaf(n, best)
      else pq.enqueue((nodeLb(qm, qs, n.left), n.left), (nodeLb(qm, qs, n.right), n.right))
    }
    best.result
  }
}

object DSTree {

  final class Node(w: Int) {
    val loMean: Array[Double] = Array.fill(w)(Double.PositiveInfinity)
    val hiMean: Array[Double] = Array.fill(w)(Double.NegativeInfinity)
    val loStd: Array[Double] = Array.fill(w)(Double.PositiveInfinity)
    val hiStd: Array[Double] = Array.fill(w)(Double.NegativeInfinity)
    var ids: ArrayBuffer[Int] = ArrayBuffer.empty
    var left: Node = _
    var right: Node = _
    var splitSeg: Int = -1
    var splitAt: Double = 0.0
    def isLeaf: Boolean = left == null
    def widen(m: Array[Double], s: Array[Double]): Unit = {
      var j = 0
      while (j < m.length) {
        if (m(j) < loMean(j)) loMean(j) = m(j); if (m(j) > hiMean(j)) hiMean(j) = m(j)
        if (s(j) < loStd(j)) loStd(j) = s(j);   if (s(j) > hiStd(j)) hiStd(j) = s(j)
        j += 1
      }
    }
  }

  /** Per-segment (mean, stddev) of a series split into `w` equal segments. */
  def segmentStats(s: Array[Double], w: Int): (Array[Double], Array[Double]) = {
    val L = s.length / w
    val means = new Array[Double](w); val stds = new Array[Double](w)
    var j = 0
    while (j < w) {
      var acc = 0.0; var i = j * L
      while (i < (j + 1) * L) { acc += s(i); i += 1 }
      val m = acc / L
      var sq = 0.0; i = j * L
      while (i < (j + 1) * L) { val d = s(i) - m; sq += d * d; i += 1 }
      means(j) = m; stds(j) = math.sqrt(sq / L)
      j += 1
    }
    (means, stds)
  }

  /** Build by unbuffered top-down insertion (the paper's cost profile). */
  def build(data: Array[Array[Double]], p: SaxParams, leafCapacity: Int,
            disk: DiskModel): DSTree = {
    SeriesIndex.checkData(data, p.n)
    SeriesIndex.checkSizes(leafCapacity)
    SeriesIndex.checkFinite(data)
    val rawBytes = p.n * 8
    val rawFile = disk.file("raw", rawBytes)
    val indexFile = disk.file("dstree-index", rawBytes + 8)
    val stats = data.map(s => segmentStats(s, p.w))
    val root = new Node(p.w)

    var i = 0
    while (i < data.length) {
      rawFile.readRecord(i.toLong) // read the incoming series
      val (m, s) = stats(i)
      var n = root
      n.widen(m, s)
      while (!n.isLeaf) {
        n = if (m(n.splitSeg) <= n.splitAt) n.left else n.right
        n.widen(m, s)
      }
      // Unbuffered top-down insert: the leaf is read and rewritten.
      indexFile.accessScattered(n.ids.length.toLong, write = false)
      n.ids += i
      indexFile.accessScattered(n.ids.length.toLong, write = true)
      if (n.ids.length > leafCapacity) {
        // Split at the median mean of the widest-spread segment; re-reads
        // the resident raw series (the "multiple iterations over the raw
        // data during splits" the paper charges DSTree for).
        var bestSeg = 0; var bestSpread = -1.0
        var j = 0
        while (j < p.w) {
          val spread = n.hiMean(j) - n.loMean(j)
          if (spread > bestSpread) { bestSpread = spread; bestSeg = j }
          j += 1
        }
        val ms = n.ids.map(id => stats(id)._1(bestSeg)).sorted
        val cut = ms(ms.length / 2)
        n.splitSeg = bestSeg
        // Guard: if all means equal the median, fall back to a half split.
        n.splitAt = if (ms.head == ms.last) ms.head else cut
        n.left = new Node(p.w); n.right = new Node(p.w)
        val (ls, rs) =
          if (ms.head == ms.last) n.ids.splitAt(n.ids.length / 2)
          else n.ids.partition(id => stats(id)._1(bestSeg) <= n.splitAt)
        n.left.ids = ls.to(ArrayBuffer); n.right.ids = rs.to(ArrayBuffer)
        n.left.ids.foreach { id => val (mm, ss) = stats(id); n.left.widen(mm, ss) }
        n.right.ids.foreach { id => val (mm, ss) = stats(id); n.right.widen(mm, ss) }
        indexFile.accessScattered(n.left.ids.length.toLong, write = false) // re-read residents
        indexFile.accessScattered(n.left.ids.length.toLong, write = true)
        indexFile.accessScattered(n.right.ids.length.toLong, write = true)
        n.ids = ArrayBuffer.empty
      }
      i += 1
    }
    new DSTree(p, data, root, disk, indexFile, leafCapacity)
  }
}
