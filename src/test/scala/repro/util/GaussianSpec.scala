package repro.util

import org.scalatest.funsuite.AnyFunSuite

class GaussianSpec extends AnyFunSuite {

  private val rnd = new java.util.Random(1234)

  test("cdf at 0 is 0.5") { assert(math.abs(Gaussian.cdf(0.0) - 0.5) < 1e-7) }
  test("cdf at +inf limit") { assert(Gaussian.cdf(8.0) > 0.999999) }
  test("cdf at -inf limit") { assert(Gaussian.cdf(-8.0) < 0.000001) }
  test("cdf is monotone") {
    val xs = (-40 to 40).map(_ / 10.0)
    xs.sliding(2).foreach { case Seq(a, b) => assert(Gaussian.cdf(a) <= Gaussian.cdf(b)) }
  }
  test("cdf matches known value at 1.96") {
    assert(math.abs(Gaussian.cdf(1.96) - 0.9750021) < 1e-5)
  }
  test("cdf symmetry: cdf(-x) = 1 - cdf(x)") {
    (0 until 200).foreach { _ =>
      val x = rnd.nextDouble() * 10 - 5
      assert(math.abs(Gaussian.cdf(-x) - (1.0 - Gaussian.cdf(x))) < 1e-9)
    }
  }
  test("inverseCdf is the inverse of cdf") {
    (0 until 500).foreach { _ =>
      val p = 0.001 + rnd.nextDouble() * 0.998
      assert(math.abs(Gaussian.cdf(Gaussian.inverseCdf(p)) - p) < 1e-7)
    }
  }
  test("inverseCdf handles extreme tails") {
    for (p <- Seq(1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9)) {
      val x = Gaussian.inverseCdf(p)
      assert(math.abs(Gaussian.cdf(x) - p) / p < 1e-3 || math.abs(Gaussian.cdf(x) - p) < 1e-7)
    }
  }
  test("inverseCdf known quantiles") {
    for ((p, x) <- Seq(0.5 -> 0.0, 0.75 -> 0.6744897501960817, 0.975 -> 1.959963984540054,
                       0.25 -> -0.6744897501960817, 0.025 -> -1.959963984540054))
      assert(math.abs(Gaussian.inverseCdf(p) - x) < 2e-7, s"p = $p")
  }
  test("inverseCdf rejects out-of-range arguments") {
    intercept[IllegalArgumentException](Gaussian.inverseCdf(0.0))
    intercept[IllegalArgumentException](Gaussian.inverseCdf(1.0))
    intercept[IllegalArgumentException](Gaussian.inverseCdf(-0.3))
  }
  test("breakpoints are strictly increasing for all SAX cardinalities") {
    for (bits <- 1 to 10) {
      val bp = Gaussian.breakpoints(1 << bits)
      assert(bp.length == (1 << bits) - 1)
      bp.sliding(2).foreach { w => if (w.length == 2) assert(w(0) < w(1)) }
    }
  }
  test("breakpoints for cardinality 4 match the canonical SAX table") {
    val bp = Gaussian.breakpoints(4)
    assert(math.abs(bp(0) + 0.6745) < 1e-3)
    assert(math.abs(bp(1)) < 1e-7)
    assert(math.abs(bp(2) - 0.6745) < 1e-3)
  }
  test("breakpoints are symmetric around zero") {
    val bp = Gaussian.breakpoints(256)
    bp.indices.foreach { i => assert(math.abs(bp(i) + bp(bp.length - 1 - i)) < 1e-6) }
  }
  test("breakpoints split the normal mass evenly") {
    val bp = Gaussian.breakpoints(8)
    bp.indices.foreach { i => assert(math.abs(Gaussian.cdf(bp(i)) - (i + 1) / 8.0) < 1e-7) }
  }
  test("breakpoints reject cardinality < 2") {
    intercept[IllegalArgumentException](Gaussian.breakpoints(1))
  }
}
