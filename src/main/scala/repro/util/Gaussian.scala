package repro.util

/** Standard-normal utilities needed by SAX.
  *
  * SAX discretizes the z-normalized value space into `c` regions of equal
  * probability under N(0,1); the region boundaries ("breakpoints") are the
  * quantiles Φ⁻¹(i/c), i = 1..c-1. We implement Φ and Φ⁻¹ directly so the
  * summarization substrate has no external dependencies.
  */
object Gaussian {

  /** Standard normal CDF Φ(x), via the complementary error function. */
  def cdf(x: Double): Double = 0.5 * erfc(-x / math.sqrt(2.0))

  /** Complementary error function, Numerical-Recipes rational approximation
    * (absolute error < 1.2e-7 — ample for breakpoint placement).
    */
  def erfc(x: Double): Double = {
    val z = math.abs(x)
    val t = 1.0 / (1.0 + 0.5 * z)
    val ans = t * math.exp(
      -z * z - 1.26551223 + t * (1.00002368 + t * (0.37409196 + t * (0.09678418 +
        t * (-0.18628806 + t * (0.27886807 + t * (-1.13520398 + t * (1.48851587 +
        t * (-0.82215223 + t * 0.17087277)))))))))
    if (x >= 0.0) ans else 2.0 - ans
  }

  /** Inverse standard normal CDF Φ⁻¹(p), Acklam's algorithm refined with one
    * Halley step. The Halley step refines against [[cdf]], whose [[erfc]]
    * has an absolute error of up to 1.2e-7, so the result carries that
    * error rather than Acklam's: 3.8e-8 absolute at p = 0.5, 5.7e-8 at
    * p = 0.75, and up to 1.05e-7 absolute (2.8e-6 relative, near the centre
    * where the quantiles are small) at the cardinality-256 breakpoints.
    * That is far below one breakpoint spacing, which is all SAX needs.
    */
  def inverseCdf(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"quantile argument must be in (0,1), got $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                  1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                  6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                  -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                  3.754408661907416e+00)
    val pLow = 0.02425
    val x =
      if (p < pLow) {
        val q = math.sqrt(-2.0 * math.log(p))
        (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
          ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1.0)
      } else if (p <= 1.0 - pLow) {
        val q = p - 0.5
        val r = q * q
        (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
          (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1.0)
      } else {
        val q = math.sqrt(-2.0 * math.log(1.0 - p))
        -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
          ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1.0)
      }
    // One Halley refinement against the forward CDF.
    val e = cdf(x) - p
    val u = e * math.sqrt(2.0 * math.Pi) * math.exp(x * x / 2.0)
    x - u / (1.0 + x * u / 2.0)
  }

  /** SAX breakpoints for cardinality `c`: the c-1 quantiles Φ⁻¹(i/c),
    * strictly increasing.
    */
  def breakpoints(c: Int): Array[Double] = {
    require(c >= 2, s"cardinality must be >= 2, got $c")
    Array.tabulate(c - 1)(i => inverseCdf((i + 1).toDouble / c))
  }
}
