package repro.baselines

import repro.index.{SearchResult, SeriesIndex}
import repro.series.{SaxParams, Series}
import repro.storage.{DiskModel, SimFile}

/** "Vertical" baseline [18] (Kashyap & Karras): multi-resolution Discrete
  * Haar Wavelet Transform features stored level by level ("vertically"),
  * queried with a stepwise sequential scan that refines lower bounds one
  * resolution level at a time.
  *
  * With the orthonormal Haar transform, ED in coefficient space equals ED
  * in the time domain, and the partial distance over the first levels is a
  * monotonically tightening lower bound — that is what each scan step
  * prunes with. Construction materializes one coefficient level per pass
  * over the raw data (the stepwise, level-at-a-time layout of the paper),
  * which is why it builds slower than Coconut's single sort (Fig. 8a).
  *
  * Series length must be a power of two (all paper configurations are).
  */
final class VerticalIndex private (
    val params: SaxParams,
    val data: Array[Array[Double]],
    val disk: DiskModel,
    private val levelFiles: Array[SimFile],
    /** coeffs(i) = orthonormal Haar coefficients of series i. */
    private val coeffs: Array[Array[Double]],
    /** Level boundaries in coefficient index space: level ℓ = [starts(ℓ), starts(ℓ+1)). */
    private val starts: Array[Int],
) extends SeriesIndex {

  def name: String = "Vertical"
  def materialized: Boolean = true
  def size: Int = data.length
  /** The vertical layout has no leaves; report one "leaf" per level. */
  def leafCount: Int = starts.length - 1
  def avgLeafFill: Double = 1.0
  def storagePages: Long =
    levelFiles.map(f => SeriesIndex.pages(size.toLong * f.recordBytes)).sum

  /** Accumulate squared partial distance of level ℓ for series i. */
  private def levelDist2(i: Int, qc: Array[Double], l: Int): Double = {
    var acc = 0.0; var k = starts(l)
    while (k < starts(l + 1)) { val d = coeffs(i)(k) - qc(k); acc += d * d; k += 1 }
    acc
  }

  /** Stepwise filter-and-refine scan. Returns the exact NN: after the last
    * level the accumulated distance IS the exact ED (orthonormal Haar), so
    * the last level's refine leaves no candidate below the best-so-far.
    */
  def exactSearch(q: Array[Double], radius: Int): SearchResult = {
    SeriesIndex.checkQuery(q, params.n)
    val qc = VerticalIndex.haar(q)
    val lb2 = new Array[Double](size) // accumulated partial distances
    var candidates = Array.tabulate(size)(identity)
    var visited = 0L
    var bsf2 = Double.PositiveInfinity
    var bsfId = -1L
    var l = 0
    while (l < starts.length - 1 && candidates.nonEmpty) {
      // Dense candidate sets scan the whole level file sequentially;
      // sparse ones fetch per-record.
      if (candidates.length * 2 >= size) { levelFiles(l).resetCursor(); levelFiles(l).scan(size.toLong) }
      else candidates.foreach(i => levelFiles(l).readRecord(i.toLong))
      candidates.foreach { i => lb2(i) += levelDist2(i, qc, l) }
      // Fully refine the most promising candidate to tighten the bsf
      // (reading its remaining levels), then prune by partial bound.
      val best = candidates.minBy(lb2)
      var full = lb2(best); var k = starts(l + 1)
      while (k < qc.length) { val d = coeffs(best)(k) - qc(k); full += d * d; k += 1 }
      (l + 1 until starts.length - 1).foreach(ll => levelFiles(ll).readRecord(best.toLong))
      visited += 1
      if (full < bsf2) { bsf2 = full; bsfId = best.toLong }
      candidates = candidates.filter(i => i != best && lb2(i) < bsf2)
      l += 1
    }
    SearchResult(bsfId, math.sqrt(bsf2), visited)
  }

  /** Approximate search: first-levels-only filter, answer the candidate
    * with the best partial bound after a fixed number of levels.
    */
  def approxSearch(q: Array[Double], radius: Int = 0): SearchResult = {
    SeriesIndex.checkQuery(q, params.n)
    require(radius >= 0, s"radius must be non-negative, got $radius")
    val qc = VerticalIndex.haar(q)
    val lvls = math.min(starts.length - 1L, 3L + radius).toInt
    val lb2 = new Array[Double](size)
    var l = 0
    while (l < lvls) {
      levelFiles(l).resetCursor(); levelFiles(l).scan(size.toLong)
      var i = 0
      while (i < size) { lb2(i) += levelDist2(i, qc, l); i += 1 }
      l += 1
    }
    var best = 0; var i = 1
    while (i < size) { if (lb2(i) < lb2(best)) best = i; i += 1 }
    (lvls until starts.length - 1).foreach(ll => levelFiles(ll).readRecord(best.toLong))
    SearchResult(best.toLong, Series.euclidean(data(best), q), 1L)
  }
}

object VerticalIndex {

  /** Orthonormal Haar transform (length must be a power of two):
    * ‖haar(a) − haar(b)‖ = ‖a − b‖.
    */
  def haar(s: Array[Double]): Array[Double] = {
    val n = s.length
    require((n & (n - 1)) == 0, s"Haar needs a power-of-two length, got $n")
    var cur = s.clone
    val out = new Array[Double](n)
    var len = n
    var writePos = n
    val r2 = math.sqrt(2.0)
    while (len > 1) {
      val half = len / 2
      val next = new Array[Double](half)
      writePos -= half
      var i = 0
      while (i < half) {
        next(i) = (cur(2 * i) + cur(2 * i + 1)) / r2
        out(writePos + i) = (cur(2 * i) - cur(2 * i + 1)) / r2
        i += 1
      }
      cur = next
      len = half
    }
    out(0) = cur(0)
    out
  }

  /** Coefficient-level boundaries: [average | detail level 1 | 2 | … ],
    * i.e. sizes 1, 1, 2, 4, …, n/2 in coarse-to-fine order.
    */
  def levelStarts(n: Int): Array[Int] = {
    val out = scala.collection.mutable.ArrayBuffer(0, 1)
    var sz = 1
    while (out.last < n) { out += out.last + sz; sz = math.min(sz * 2, n - out.last) }
    out.toArray
  }

  /** Build the vertical layout: one pass over the raw file per level. */
  def build(data: Array[Array[Double]], p: SaxParams, disk: DiskModel): VerticalIndex = {
    SeriesIndex.checkData(data, p.n)
    val n = data.length
    val len = p.n
    val rawFile = disk.file("raw", len * 8)
    val coeffs = data.map(haar)
    val starts = levelStarts(len)
    val levelFiles = Array.tabulate(starts.length - 1) { l =>
      disk.file(s"vertical-level-$l", math.max(8, (starts(l + 1) - starts(l)) * 8))
    }
    var l = 0
    while (l < levelFiles.length) {
      rawFile.resetCursor(); rawFile.scan(n.toLong) // stepwise: one pass per level
      levelFiles(l).appendRange(n.toLong)
      l += 1
    }
    new VerticalIndex(p, data, disk, levelFiles, coeffs, starts)
  }
}
