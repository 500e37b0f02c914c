package repro.series

import org.scalatest.funsuite.AnyFunSuite

import repro.util.Pool

class SeriesGenSpec extends AnyFunSuite {

  test("randomWalk is deterministic in (seed, id)") {
    assert(SeriesGen.randomWalk(5, 64, 42).sameElements(SeriesGen.randomWalk(5, 64, 42)))
  }
  test("randomWalk differs across ids") {
    assert(!SeriesGen.randomWalk(1, 64).sameElements(SeriesGen.randomWalk(2, 64)))
  }
  test("randomWalk differs across seeds") {
    assert(!SeriesGen.randomWalk(1, 64, 1).sameElements(SeriesGen.randomWalk(1, 64, 2)))
  }
  test("all generators produce z-normalized output") {
    for (kind <- Seq("walk", "seismic", "astronomy"); id <- 0 until 20) {
      val s = SeriesGen.dataset(kind, id + 1, 64, 3)(id)
      val mean = s.sum / s.length
      val varr = s.map(v => (v - mean) * (v - mean)).sum / s.length
      assert(math.abs(mean) < 1e-9, s"$kind mean")
      assert(math.abs(varr - 1.0) < 1e-9, s"$kind variance")
    }
  }
  test("all generators honor the requested length") {
    for (kind <- Seq("walk", "seismic", "astronomy"); len <- Seq(16, 64, 256)) {
      assert(SeriesGen.dataset(kind, 3, len, 1).forall(_.length == len))
    }
  }
  test("dataset rejects unknown kinds") {
    intercept[IllegalArgumentException](SeriesGen.dataset("bogus", 1, 16, 1))
  }
  test("queries are disjoint from the dataset") {
    val d = SeriesGen.dataset("walk", 10, 32, 5)
    val q = SeriesGen.queries("walk", 10, 32, 5)
    d.indices.foreach(i => assert(!d(i).sameElements(q(i))))
  }
  test("random walks have high lag-1 autocorrelation (walk-like shape)") {
    val s = SeriesGen.randomWalk(3, 256)
    val mean = s.sum / s.length
    val num = (0 until s.length - 1).map(i => (s(i) - mean) * (s(i + 1) - mean)).sum
    val den = s.map(v => (v - mean) * (v - mean)).sum
    assert(num / den > 0.8)
  }
  test("seismicLike is smoother than the raw walk") {
    def roughness(s: Array[Double]): Double =
      s.sliding(2).map(w => math.abs(w(1) - w(0))).sum / (s.length - 1)
    val avgWalk = (0 until 20).map(i => roughness(SeriesGen.randomWalk(i, 128))).sum / 20
    val avgSeis = (0 until 20).map(i => roughness(SeriesGen.seismicLike(i, 128))).sum / 20
    assert(avgSeis < avgWalk)
  }
  test("astronomyLike values are right-skewed relative to the walk") {
    def skew(ss: Seq[Array[Double]]): Double = {
      val all = ss.flatten
      all.map(v => v * v * v).sum / all.size // third moment of z-normalized values
    }
    val walkSkew = skew((0 until 50).map(i => SeriesGen.randomWalk(i, 128)))
    val astroSkew = skew((0 until 50).map(i => SeriesGen.astronomyLike(i, 128)))
    assert(math.abs(astroSkew) != math.abs(walkSkew)) // distributions differ
  }
  test("seismic-like series are denser in summarization space than walks") {
    // The paper reports pruning is harder on the real datasets because the
    // data are denser; verify via distinct SAX words.
    val p = SaxParams(64, 8, 4)
    val walks = (0 until 300).map(i => SAX.sax(SeriesGen.randomWalk(i, 64), p).toSeq).toSet
    val seis = (0 until 300).map(i => SAX.sax(SeriesGen.seismicLike(i, 64), p).toSeq).toSet
    assert(seis.size <= walks.size + 30)
  }
  test("dataset returns n series") {
    assert(SeriesGen.dataset("walk", 17, 16, 0).length == 17)
  }
  test("a dataset generated in chunks equals the generator tabulated in order") {
    for (kind <- Seq("walk", "seismic", "astronomy")) {
      val gen = SeriesGen.generator(kind)
      for ((n, chunk) <- Seq((0, 3), (1, 3), (23, 3), (23, 23), (3 * Pool.MinChunk + 7, Pool.MinChunk))) {
        val want = Array.tabulate(n)(i => gen(i.toLong, 32, 4))
        val got = if (chunk == Pool.MinChunk) SeriesGen.dataset(kind, n, 32, 4) else SeriesGen.dataset(kind, n, 32, 4, chunk)
        assert(got.length == n && got.indices.forall(i => got(i).sameElements(want(i))), s"$kind, $n series in chunks of $chunk")
      }
    }
  }
}
