package repro.util

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicIntegerArray

import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

import repro.core.CoconutTree
import repro.series.{SaxParams, SeriesGen}
import repro.storage.DiskModel

class PoolSpec extends AnyFunSuite {

  /** The threads that ran the chunks of `chunked(n, chunk)`, after checking
    * that every index of `[0, n)` ran exactly once.
    */
  private def runners(n: Int, chunk: Int): Set[Thread] = {
    val seen = new AtomicIntegerArray(n)
    val threads = ConcurrentHashMap.newKeySet[Thread]()
    Pool.chunked(n, chunk) { (from, until) =>
      threads.add(Thread.currentThread)
      var i = from
      while (i < until) { seen.incrementAndGet(i); i += 1 }
    }
    assert((0 until n).forall(seen.get(_) == 1), s"$n indices in chunks of $chunk")
    threads.asScala.toSet
  }

  test("chunked runs every index once, for ranges of one chunk on the caller") {
    for (n <- Seq(0, 1, 6, 7, 8, 50, 1000); chunk <- Seq(1, 7, 1000)) runners(n, chunk)
    assert(runners(7, 7) == Set(Thread.currentThread))
    assert(runners(Pool.MinChunk, Pool.MinChunk) == Set(Thread.currentThread))
  }

  test("the pool's workers are daemon threads") {
    val threads = ConcurrentHashMap.newKeySet[Thread]()
    Pool.chunked(40, 1) { (_, _) => threads.add(Thread.currentThread); Thread.sleep(2) }
    val workers = threads.asScala.toSet - Thread.currentThread
    if (Runtime.getRuntime.availableProcessors > 1) assert(workers.nonEmpty, "no chunk ran on a worker")
    assert(workers.forall(_.isDaemon), workers.filterNot(_.isDaemon).map(_.getName))
  }

  test("chunked rethrows the lowest failed chunk's own exception") {
    for (chunk <- Seq(1, 3, 10)) {
      val e = intercept[IllegalStateException] {
        Pool.chunked(100, chunk) { (from, until) =>
          if (from <= 95 && 95 < until) throw new IllegalStateException("late")
          if (from <= 41 && 41 < until) throw new IllegalStateException("early")
        }
      }
      assert(e.getMessage == "early", s"chunks of $chunk")
    }
  }

  test("a build started from a non-daemon thread leaves no non-daemon thread behind") {
    def nonDaemon(): Set[Thread] = Thread.getAllStackTraces.keySet.asScala.filter(t => t.isAlive && !t.isDaemon).toSet
    val data = SeriesGen.dataset("walk", 3 * Pool.MinChunk + 7, 64, seed = 5)
    val before = nonDaemon()
    val builder = new Thread(() => {
      CoconutTree.bulkLoad(data, SaxParams(64, 8, 8), 2000, 1L << 30, new DiskModel(), materialized = false)
      ()
    })
    builder.setDaemon(false)
    builder.start()
    builder.join()
    assert((nonDaemon() -- before).isEmpty, (nonDaemon() -- before).map(_.getName))
  }
}
