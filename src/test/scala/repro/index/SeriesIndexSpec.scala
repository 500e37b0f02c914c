package repro.index

import org.scalatest.funsuite.AnyFunSuite

/** The approximate-search leaf window that Coconut-Tree and the Spark
  * dataflow share.
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
}
