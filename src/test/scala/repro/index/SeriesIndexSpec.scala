package repro.index

import org.scalatest.funsuite.AnyFunSuite

import repro.baselines.ISaxIndex
import repro.core.CoconutTree
import repro.series.{InvSAX, SaxParams, SeriesGen}
import repro.storage.DiskModel
import repro.util.Pool

/** The approximate-search leaf window that Coconut-Tree and the Spark
  * dataflow share, and the range summarize of every summarizing build.
  */
class SeriesIndexSpec extends AnyFunSuite {

  private val firstKeys = Array(10L, 20L, 30L, 40L, 50L)

  private def window(key: Long, radius: Int): Seq[Int] = SeriesIndex.leafWindow(firstKeys, key, radius)

  test("leafWindow at radius 0 is the rightmost leaf whose first key is <= the key") {
    assert(window(30, 0) == Seq(2))
    assert(window(39, 0) == Seq(2))
    assert(window(50, 0) == Seq(4))
    assert(window(Long.MaxValue, 0) == Seq(4))
    assert(SeriesIndex.leafWindow(Array(10L, 10L, 10L, 20L), 10, 0) == Seq(2))
  }

  test("leafWindow starts at the first leaf for a key below the first leaf's key") {
    assert(window(5, 0) == Seq(0))
    assert(window(Long.MinValue, 1) == Seq(0, 1))
  }

  test("leafWindow clamps the radius at the first and the last leaf") {
    assert(window(35, 1) == Seq(1, 2, 3))
    assert(window(10, 2) == Seq(0, 1, 2))
    assert(window(55, 2) == Seq(2, 3, 4))
  }

  test("leafWindow at radius Int.MaxValue covers every leaf without overflow") {
    for (key <- Seq(5L, 30L, 50L)) assert(window(key, Int.MaxValue) == (0 to 4))
  }

  test("leafWindow rejects a negative radius") {
    val e = intercept[IllegalArgumentException](window(30, -1))
    assert(e.getMessage.contains("radius must be non-negative, got -1"))
  }

  private val p = SaxParams(64, 8, 8)

  /** The range summarize's keys and symbols of `data(from until until)`
    * against one [[InvSAX.summarize]] per series in order.
    */
  private def checkSummarize(data: Array[Array[Double]], from: Int, until: Int, chunk: Int): Unit = {
    val keys = new Array[Long](data.length); val syms = new Array[Byte](data.length * p.w)
    SeriesIndex.summarize(data, from, until, p, keys, syms, chunk)
    val wantKeys = new Array[Long](data.length); val wantSyms = new Array[Byte](data.length * p.w)
    for (i <- from until until) wantKeys(i) = InvSAX.summarize(data(i), p, wantSyms, i * p.w)
    assert(keys.sameElements(wantKeys) && syms.sameElements(wantSyms), s"[$from, $until) in chunks of $chunk")
    // A store without keys gets the same symbols.
    val symsOnly = new Array[Byte](data.length * p.w)
    SeriesIndex.summarize(data, from, until, p, Array.emptyLongArray, symsOnly, chunk)
    assert(symsOnly.sameElements(wantSyms))
  }

  test("the range summarize equals a per-series loop at sizes around its chunk") {
    for (chunk <- Seq(5, Pool.MinChunk)) {
      val data = SeriesGen.dataset("walk", 3 * chunk + 9, 64, seed = 90)
      for (n <- Seq(0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7)) {
        checkSummarize(data, 0, n, chunk)
        checkSummarize(data, 2, 2 + n, chunk) // a range that starts past series 0
      }
    }
    checkSummarize(SeriesGen.dataset("walk", 40, 64, seed = 91), 0, 40, Pool.MinChunk) // the default chunk runs inline
  }

  /** The exception of a summarize over `data`, in chunks of `chunk`. */
  private def rejection(data: Array[Array[Double]], chunk: Int): IllegalArgumentException =
    intercept[IllegalArgumentException](
      SeriesIndex.summarize(data, 0, data.length, p, new Array[Long](data.length), new Array[Byte](data.length * p.w), chunk))

  test("the range summarize names the lowest bad series, with the message of a sequential loop") {
    for ((first, second) <- Seq((Double.NaN, Double.PositiveInfinity), (Double.PositiveInfinity, Double.NaN))) {
      val data = SeriesGen.dataset("walk", 60, 64, seed = 92)
      data(12)(13) = first  // chunk 2 of 12
      data(57)(3) = second  // chunk 11
      val sequential = rejection(data, data.length)
      assert(sequential.getMessage == s"series 12: value 13 is $first; indexed values must be finite")
      for (chunk <- Seq(1, 5, 7)) {
        val e = rejection(data, chunk)
        assert(e.getClass == classOf[IllegalArgumentException] && e.getMessage == sequential.getMessage, s"chunks of $chunk")
        assert(e.getCause.getMessage == "value 13 is " + first + "; indexed values must be finite")
      }
    }
  }

  test("CTree and ADS builds name the same lowest bad series of a pooled summarize") {
    val data = SeriesGen.dataset("walk", 3 * Pool.MinChunk, 64, seed = 93)
    data(Pool.MinChunk + 57)(13) = Double.NaN
    data(2 * Pool.MinChunk + 1)(0) = Double.NegativeInfinity
    val want = s"series ${Pool.MinChunk + 57}: value 13 is NaN; indexed values must be finite"
    val tree = intercept[IllegalArgumentException](CoconutTree.bulkLoad(data, p, 2000, 1L << 30, new DiskModel(), materialized = false))
    val ads = intercept[IllegalArgumentException](ISaxIndex.build(data, p, 2000, 1L << 30, new DiskModel(), materialized = false))
    assert(tree.getMessage == want && ads.getMessage == want)
  }
}
