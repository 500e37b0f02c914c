package repro.index

import scala.collection.mutable.ArrayBuffer

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.baselines.ISaxIndex
import repro.bench.Experiments
import repro.core.CoconutTree
import repro.series.{SaxParams, Series, SeriesGen}
import repro.storage.DiskStats

/** A model-based test of the one update path: every index that takes
  * batches (Coconut-Tree/Trie through `bulkInsertMerge`, ADS through
  * `insert`) is built over a first batch and then handed a random sequence
  * of batches. The model is the list of series inserted so far. After every
  * batch, exact search equals brute force over the model, approximate
  * search returns an inserted series at its true distance, and modelled I/O
  * has not decreased. A batch holding a NaN, an infinity or a series of the
  * wrong length is rejected with nothing changed. A Coconut index's leaves
  * equal those of a fresh bulk load of the model: a merge keeps equal keys
  * in raw-file order and cuts leaves with the variant's own rule.
  */
class UpdatePathSpec extends AnyFunSuite {
  import UpdatePathSpec.Batch

  private val Len = 64
  private val p = SaxParams(n = Len, w = 8, bits = 6)
  private val queries =
    SeriesGen.queries("walk", 2, Len, seed = 91) ++ SeriesGen.queries("astronomy", 1, Len, seed = 91)

  /** Empty, single, small or large. */
  private val size: Gen[Int] =
    Gen.frequency(1 -> Gen.const(0), 2 -> Gen.const(1), 3 -> Gen.choose(2, 20), 2 -> Gen.choose(100, 300))

  private def batch(sources: Seq[String], sizes: Gen[Int], poisoned: Boolean): Gen[Batch] = for {
    source <- Gen.oneOf(sources)
    m <- sizes
    seed <- Gen.choose(0L, 1L << 40)
    at <- Gen.choose(0, math.max(0, m - 1))
    how <- Gen.oneOf("NaN", "+inf", "-inf", "short", "long")
  } yield Batch(source, m, seed, if (poisoned && m > 0) Some((at, how)) else None)

  private val sources = Seq("walk", "astronomy", "constant", "duplicate")

  /** The first batch (built over, so not empty), 1–6 later batches (about
    * one in four poisoned), the leaf capacity and the memory budget.
    */
  private val scenario: Gen[(Batch, List[Batch], Int, Long)] = for {
    first <- batch(sources.init, Gen.choose(1, 300), poisoned = false)
    k <- Gen.choose(1, 6)
    later <- Gen.listOfN(k, Gen.frequency(3 -> batch(sources, size, poisoned = false),
                                          1 -> batch(sources, size, poisoned = true)))
    cap <- Gen.oneOf(5, 40)
    memBytes <- Gen.oneOf(2048L, 1L << 30)
  } yield (first, later, cap, memBytes)

  /** The series of `b`; a duplicate batch copies series of `inserted`. */
  private def series(b: Batch, inserted: IndexedSeq[Array[Double]]): Array[Array[Double]] = {
    val rnd = new java.util.Random(b.seed)
    val out = b.source match {
      case "constant"  => val c = rnd.nextGaussian() * 2; Array.fill(b.m)(Array.fill(Len)(c))
      case "duplicate" => Array.fill(b.m)(inserted(rnd.nextInt(inserted.length)).clone())
      case kind        => SeriesGen.dataset(kind, b.m, Len, b.seed)
    }
    for ((at, how) <- b.poison) {
      val s = out(at)
      out(at) = how match {
        case "short" => s.take(Len - 8)
        case "long"  => s ++ s.take(8)
        case _ =>
          val bad = s.clone()
          bad(rnd.nextInt(Len)) = how match {
            case "NaN"  => Double.NaN
            case "+inf" => Double.PositiveInfinity
            case _      => Double.NegativeInfinity
          }
          bad
      }
    }
    out
  }

  /** `idx`'s batch insert and its leaf layout. */
  private def updates(idx: SeriesIndex): (Array[Array[Double]] => Unit, () => Any) = idx match {
    case t: CoconutTree => (t.bulkInsertMerge, () => t.leaves.map(l => (l.start, l.occupancy, l.entries.toList)))
    case a: ISaxIndex   => (a.insert, () => a.collectLeaves.map(_.ids.toList))
  }

  private def noLess(a: DiskStats, b: DiskStats): Boolean =
    a.randomOps >= b.randomOps && a.seqBlocks >= b.seqBlocks && a.blocksRead >= b.blocksRead &&
      a.blocksWritten >= b.blocksWritten && a.elapsedMs >= b.elapsedMs

  private def run(system: String, first: Batch, later: List[Batch], cap: Int, memBytes: Long): Unit = {
    val model = ArrayBuffer.from(series(first, IndexedSeq.empty))
    val idx = Experiments.build(system, model.toArray, p, cap, memBytes)
    val (insert, layout) = updates(idx)
    for ((b, step) <- later.zipWithIndex) {
      val io = idx.disk.snapshot
      val batch = series(b, model.toIndexedSeq)
      b.poison match {
        case None =>
          insert(batch)
          model ++= batch
        case Some((at, how)) =>
          val before = (idx.size, layout(), idx.disk.snapshot)
          val e = intercept[IllegalArgumentException](insert(batch))
          assert(e.getMessage.contains(s"series $at"), s"step $step, $how at $at: ${e.getMessage}")
          assert((idx.size, layout(), idx.disk.snapshot) == before, s"step $step: a rejected batch changed the index")
      }
      assert(idx.size == model.length, s"step $step")
      val data = model.toArray
      for (q <- queries :+ model.last) {
        val want = BruteForce.nn(data, q).dist
        val exact = idx.exactSearch(q)
        assert(math.abs(exact.dist - want) < 1e-9, s"step $step: exact ${exact.dist}, brute force $want")
        val approx = idx.approxSearch(q)
        assert(approx.id >= 0 && approx.id < data.length &&
                 math.abs(approx.dist - Series.euclidean(data(approx.id.toInt), q)) < 1e-9,
               s"step $step: approx $approx is not an inserted series at its distance")
        assert(approx.dist >= exact.dist - 1e-9, s"step $step: approx $approx beats exact $exact")
      }
      assert(noLess(idx.disk.snapshot, io), s"step $step: modelled I/O decreased")
      if (idx.isInstanceOf[CoconutTree])
        assert(layout() == updates(Experiments.build(system, data, p, cap, memBytes))._2(),
               s"step $step: merged leaves differ from a bulk load of the same series")
    }
  }

  test("every batch-taking index answers like brute force after each batch and rejects a bad batch unchanged") {
    for (system <- Seq("CTree", "CTreeFull", "CTrie", "CTrieFull", "ADS+", "ADSFull")) {
      val prop = Prop.forAllNoShrink(scenario) { case (first, later, cap, memBytes) =>
        run(system, first, later, cap, memBytes)
        true
      }
      val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(17L), prop)
      assert(r.passed, s"$system: ${Pretty.pretty(r)}")
    }
  }
}

object UpdatePathSpec {

  /** One batch: `m` series of `source` drawn from `seed`; with `poison`,
    * series `at` is made invalid in the way it names.
    */
  private final case class Batch(source: String, m: Int, seed: Long, poison: Option[(Int, String)])
}
