package repro.index

import org.scalatest.funsuite.AnyFunSuite

import repro.baselines.{DSTree, ISaxIndex, RTreeSTR, VerticalIndex}
import repro.bench.Experiments
import repro.core.{CoconutTree, CoconutTrie}
import repro.series.{SaxParams, Series, SeriesGen}
import repro.storage.DiskModel

/** Cross-index agreement: every index's exact search must return the
  * brute-force nearest-neighbor distance on identical workloads — across
  * dataset kinds and summarization configurations. This is the repo-wide
  * guard that all lower bounds really are lower bounds and all search
  * algorithms really are exact.
  */
class AgreementSpec extends AnyFunSuite {

  private def allIndexes(data: Array[Array[Double]], p: SaxParams, cap: Int): Seq[SeriesIndex] = Seq(
    CoconutTree.bulkLoad(data, p, cap, 1L << 30, new DiskModel(), materialized = true),
    CoconutTree.bulkLoad(data, p, cap, 1L << 30, new DiskModel(), materialized = false),
    CoconutTrie.bulkLoad(data, p, cap, 1L << 30, new DiskModel(), materialized = true),
    CoconutTrie.bulkLoad(data, p, cap, 1L << 30, new DiskModel(), materialized = false),
    ISaxIndex.build(data, p, cap, 1L << 30, new DiskModel(), materialized = true),
    ISaxIndex.build(data, p, cap, 1L << 30, new DiskModel(), materialized = false),
    RTreeSTR.build(data, p, cap, 1L << 30, new DiskModel(), materialized = true),
    RTreeSTR.build(data, p, cap, 1L << 30, new DiskModel(), materialized = false),
    DSTree.build(data, p, cap, new DiskModel()),
    VerticalIndex.build(data, p, new DiskModel()),
  )

  test("all ten indexes reject a query of the wrong length or with NaN") {
    val p = SaxParams(n = 64, w = 8, bits = 6)
    val data = SeriesGen.dataset("walk", 200, 64, seed = 71)
    val bad = Seq(SeriesGen.queries("walk", 1, 64, seed = 71)(0).take(32), Array.fill(64)(Double.NaN))
    for (idx <- allIndexes(data, p, cap = 30); q <- bad;
         search <- Seq[Array[Double] => SearchResult](idx.approxSearch(_), idx.exactSearch(_))) {
      val e = intercept[IllegalArgumentException](search(q))
      assert(e.getMessage.contains("query must be 64 finite values"), idx.name)
    }
  }

  test("all ten systems reject a dataset holding a series of the wrong length") {
    val p = SaxParams(n = 64, w = 8, bits = 6)
    val data = SeriesGen.dataset("walk", 200, 64, seed = 71)
    val q = SeriesGen.queries("walk", 1, 64, seed = 71)(0)
    // One series cut short to the query's first 56 values, and one too long.
    for (odd <- Seq(q.take(56), q ++ q.take(8));
         system <- Seq("CTreeFull", "CTree", "CTrieFull", "CTrie", "ADSFull", "ADS+",
                       "R-tree", "R-tree+", "DSTree", "Vertical")) {
      val e = intercept[IllegalArgumentException](Experiments.build(system, data :+ odd, p, 30, 1L << 30))
      assert(e.getMessage.contains(s"every series must have 64 values, like the index's SAX parameters; " +
                                   s"series 200 has ${odd.length}"), system)
    }
  }

  test("every system rejects a leaf capacity or a memory budget below 1") {
    val p = SaxParams(n = 64, w = 8, bits = 6)
    val data = SeriesGen.dataset("walk", 300, 64, seed = 72)
    val budgeted = Seq("CTreeFull", "CTree", "CTrieFull", "CTrie", "ADSFull", "ADS+", "R-tree", "R-tree+")
    for (system <- budgeted :+ "DSTree"; cap <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](Experiments.build(system, data, p, cap, 1L << 30))
      assert(e.getMessage.contains(s"leaf capacity must be at least 1, got $cap"), system)
    }
    for (system <- budgeted; mem <- Seq(0L, -5L)) {
      val e = intercept[IllegalArgumentException](Experiments.build(system, data, p, 30, mem))
      assert(e.getMessage.contains(s"memory budget must be at least 1 byte, got $mem"), system)
    }
  }

  for (kind <- Seq("walk", "seismic", "astronomy")) {
    test(s"all ten indexes agree with brute force on the $kind dataset") {
      val p = SaxParams(n = 64, w = 8, bits = 6)
      val data = SeriesGen.dataset(kind, 400, 64, seed = 21)
      val queries = SeriesGen.queries(kind, 10, 64, seed = 21)
      val idxs = allIndexes(data, p, cap = 30)
      for (q <- queries) {
        val want = BruteForce.nn(data, q).dist
        for (idx <- idxs) {
          val got = idx.exactSearch(q).dist
          assert(math.abs(got - want) < 1e-9, s"${idx.name} on $kind: got $got want $want")
        }
      }
    }
  }

  test("agreement holds for a coarse summarization (w=4, bits=3)") {
    val p = SaxParams(n = 32, w = 4, bits = 3)
    val data = SeriesGen.dataset("walk", 300, 32, seed = 31)
    val queries = SeriesGen.queries("walk", 8, 32, seed = 31)
    for (q <- queries) {
      val want = BruteForce.nn(data, q).dist
      for (idx <- allIndexes(data, p, cap = 25))
        assert(math.abs(idx.exactSearch(q).dist - want) < 1e-9, idx.name)
    }
  }

  test("agreement holds for the full 64-bit invSAX configuration (w=8, bits=8)") {
    val p = SaxParams(n = 64, w = 8, bits = 8)
    val data = SeriesGen.dataset("walk", 300, 64, seed = 41)
    val queries = SeriesGen.queries("walk", 8, 64, seed = 41)
    for (q <- queries) {
      val want = BruteForce.nn(data, q).dist
      for (idx <- allIndexes(data, p, cap = 25))
        assert(math.abs(idx.exactSearch(q).dist - want) < 1e-9, idx.name)
    }
  }

  test("approximate answers are never better than exact answers") {
    val p = SaxParams(n = 64, w = 8, bits = 6)
    val data = SeriesGen.dataset("walk", 400, 64, seed = 51)
    val queries = SeriesGen.queries("walk", 10, 64, seed = 51)
    for (q <- queries; idx <- allIndexes(data, p, cap = 30)) {
      assert(idx.approxSearch(q).dist >= idx.exactSearch(q).dist - 1e-9, idx.name)
    }
  }

  // Edge cases: every index's exact search equals brute force, and its
  // approximate answer is an indexed series at its true distance, no
  // better than the exact one, at radius 0, the leaf count and Int.MaxValue.
  private def checkEdgeCase(label: String, data: Array[Array[Double]], cap: Int,
                            queries: Seq[Array[Double]]): Unit = {
    val p = SaxParams(n = 64, w = 8, bits = 6)
    for (idx <- allIndexes(data, p, cap); q <- queries) {
      val want = BruteForce.nn(data, q).dist
      for (r <- Seq(0, idx.leafCount, Int.MaxValue)) {
        val exact = idx.exactSearch(q, r).dist
        assert(math.abs(exact - want) < 1e-9, s"${idx.name} on $label, radius $r: got $exact want $want")
        val approx = idx.approxSearch(q, r)
        assert(approx.id >= 0 && math.abs(approx.dist - Series.euclidean(data(approx.id.toInt), q)) < 1e-9,
          s"${idx.name} on $label, radius $r: approx $approx is not an indexed series")
        assert(approx.dist >= exact - 1e-9, s"${idx.name} on $label, radius $r: approx $approx, exact $exact")
      }
    }
  }
  private val edgeQueries = SeriesGen.queries("walk", 3, 64, seed = 81).toSeq

  test("edge case: all-constant data, where every key is equal") {
    val data = Array.fill(200)(Array.fill(64)(0.25))
    checkEdgeCase("constant data", data, cap = 30, edgeQueries ++ Seq(Array.fill(64)(0.25), Array.fill(64)(-1.0)))
  }

  test("edge case: many duplicate series") {
    val distinct = SeriesGen.dataset("walk", 12, 64, seed = 82)
    val data = Array.tabulate(360)(i => distinct(i % distinct.length).clone())
    checkEdgeCase("duplicates", data, cap = 25, edgeQueries ++ distinct.take(2))
  }

  test("edge case: a single leaf, and radii past the leaf count") {
    val data = SeriesGen.dataset("walk", 300, 64, seed = 83)
    checkEdgeCase("one leaf", data, cap = 300, edgeQueries)
    checkEdgeCase("30-series leaves", data, cap = 30, edgeQueries)
  }

  test("an empty batch leaves answers and modelled I/O unchanged") {
    val p = SaxParams(n = 64, w = 8, bits = 6)
    val data = SeriesGen.dataset("walk", 300, 64, seed = 84)
    def answers(idx: SeriesIndex) = edgeQueries.map { q =>
      val before = idx.disk.snapshot
      val r = (idx.approxSearch(q, 1), idx.exactSearch(q))
      (r, idx.disk.snapshot - before)
    }
    for (mat <- Seq(true, false)) {
      def tree() = CoconutTree.bulkLoad(data, p, 30, 1L << 30, new DiskModel(), mat)
      def ads() = ISaxIndex.build(data, p, 30, 1L << 30, new DiskModel(), mat)
      val (t, a) = (tree(), ads())
      for ((idx, twin, insertNothing) <- Seq[(SeriesIndex, SeriesIndex, () => Unit)](
             (t, tree(), () => t.bulkInsertMerge(Array.empty)),
             (a, ads(), () => a.insertSlice(a.size, a.size)))) {
        val before = idx.disk.snapshot
        insertNothing()
        assert(idx.disk.snapshot == before, idx.name)
        assert(answers(idx) == answers(twin), idx.name)
        assert(idx.disk.snapshot == twin.disk.snapshot, idx.name)
      }
    }
  }

  test("visited-records counts are positive and bounded by dataset size for exact search") {
    val p = SaxParams(n = 64, w = 8, bits = 6)
    val data = SeriesGen.dataset("walk", 400, 64, seed = 61)
    val q = SeriesGen.queries("walk", 1, 64, seed = 61)(0)
    for (idx <- allIndexes(data, p, cap = 30)) {
      val r = idx.exactSearch(q)
      assert(r.visitedRecords > 0 && r.visitedRecords <= 2L * 400, idx.name)
    }
  }
}
