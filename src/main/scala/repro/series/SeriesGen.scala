package repro.series

import java.util.Random
import repro.util.Pool

/** Deterministic data-series generators (local, driver-side).
  *
  * The paper evaluates on (i) random-walk synthetic data (steps drawn from
  * N(0,1), the standard generator of [63] shown to model financial data),
  * and (ii) real seismic (IRIS) and astronomy (AGN X-ray) series. We cannot
  * ship the real datasets, so per the substitution rule we generate
  * distribution-matched stand-ins: the paper's Fig. 7 shows the seismic
  * value histogram is near-identical to random walk (we add mild smoothing,
  * making neighboring series *denser* — the property the paper blames for
  * harder queries), and the astronomy histogram is slightly skewed (we add
  * positive bursts). All series are z-normalized, identical to the
  * pipeline the real data would follow.
  *
  * Every series is derived from `(seed, id)` alone so datasets are
  * reproducible and can be regenerated lazily without storing 100 GB.
  */
object SeriesGen {

  private def rng(seed: Long, id: Long): Random = new Random(seed * 0x9e3779b97f4a7c15L + id)

  /** Random walk of length `len`: cumulative sum of N(0,1) steps, z-normalized. */
  def randomWalk(id: Long, len: Int, seed: Long = 42L): Array[Double] = {
    val r = rng(seed, id)
    val out = new Array[Double](len)
    var acc = 0.0; var i = 0
    while (i < len) { acc += r.nextGaussian(); out(i) = acc; i += 1 }
    Series.znormalize(out)
  }

  /** Seismic-like: random walk passed through a short moving average, which
    * concentrates series in a denser region of summarization space (harder
    * pruning, as the paper reports for the real datasets).
    */
  def seismicLike(id: Long, len: Int, seed: Long = 7L): Array[Double] = {
    val r = rng(seed, id)
    val raw = new Array[Double](len)
    var acc = 0.0; var i = 0
    while (i < len) { acc += r.nextGaussian(); raw(i) = acc; i += 1 }
    val win = 4
    val out = new Array[Double](len)
    i = 0
    while (i < len) {
      var s = 0.0; var k = math.max(0, i - win + 1)
      val n = i - k + 1
      while (k <= i) { s += raw(k); k += 1 }
      out(i) = s / n
      i += 1
    }
    Series.znormalize(out)
  }

  /** Astronomy-like: random walk plus occasional positive exponential bursts
    * (AGN flares), giving the slightly right-skewed value histogram of the
    * paper's astronomy dataset.
    */
  def astronomyLike(id: Long, len: Int, seed: Long = 11L): Array[Double] = {
    val r = rng(seed, id)
    val out = new Array[Double](len)
    var acc = 0.0; var i = 0
    while (i < len) {
      acc += r.nextGaussian()
      if (r.nextDouble() < 0.05) acc += 3.0 * -math.log(r.nextDouble() + 1e-12)
      out(i) = acc
      i += 1
    }
    Series.znormalize(out)
  }

  /** The generator of dataset `kind` ("walk", "seismic" or "astronomy"),
    * as `(id, len, seed) => series`.
    */
  def generator(kind: String): (Long, Int, Long) => Array[Double] = kind match {
    case "walk"      => randomWalk
    case "seismic"   => seismicLike
    case "astronomy" => astronomyLike
    case other       => throw new IllegalArgumentException(s"unknown dataset kind: $other")
  }

  /** A dataset of `n` series, generated eagerly in chunks on [[Pool]];
    * series i depends only on (kind, i, len, seed), so the dataset is the
    * same on any number of cores.
    */
  def dataset(kind: String, n: Int, len: Int, seed: Long): Array[Array[Double]] =
    dataset(kind, n, len, seed, Pool.MinChunk)

  private[repro] def dataset(kind: String, n: Int, len: Int, seed: Long, chunk: Int): Array[Array[Double]] = {
    val gen = generator(kind)
    val out = new Array[Array[Double]](n)
    Pool.chunked(n, chunk) { (from, until) =>
      var i = from
      while (i < until) { out(i) = gen(i.toLong, len, seed); i += 1 }
    }
    out
  }

  /** Query workload: same generator family, disjoint seed space (paper §5:
    * queries are random series drawn the same way as the data).
    */
  def queries(kind: String, n: Int, len: Int, seed: Long): Array[Array[Double]] =
    dataset(kind, n, len, seed + 0x51ed270b)
}
