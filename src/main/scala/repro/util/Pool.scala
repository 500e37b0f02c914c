package repro.util

import java.util.concurrent.{CountDownLatch, ForkJoinPool}
import java.util.concurrent.atomic.AtomicInteger

/** Runs an index range `[0, n)` as contiguous chunks on every core: the
  * build's summarize, sort and permute steps and dataset generation.
  *
  * The workers are the JDK's common `ForkJoinPool` (daemon threads, at most
  * one per core besides the caller), and the calling thread takes chunks
  * too. Chunks are claimed in ascending order from one shared counter, so a
  * worker that starts late finds less to do and the caller never waits for
  * a chunk that nobody has claimed. A range of one chunk, or any range on a
  * one-core machine, runs inline on the caller as one `body(0, n)`, with no
  * task submitted.
  */
object Pool {

  /** The chunk of [[range]]: small enough to spread a build of 100k
    * series across the cores (summarizing a chunk of series of 64 values
    * takes about half a millisecond), large enough that a batch of 1,000
    * series runs on the caller.
    */
  private[repro] val MinChunk = 4096

  /** The cores, read once, as the common pool reads them once for its
    * size: the caller and at most `Cores - 1` workers run a range's chunks.
    */
  private val Cores = Runtime.getRuntime.availableProcessors

  /** Run `body(from, until)` over `[0, n)` in chunks of [[MinChunk]]. */
  def range(n: Int)(body: (Int, Int) => Unit): Unit = chunked(n, MinChunk)(body)

  /** Run `body(from, until)` over `[0, n)` in chunks of `chunk` indices
    * (the last may be shorter), or as one `body(0, n)` when that is one
    * chunk or there is one core. Each chunk runs once, on the caller or on a
    * pool worker; writes of every chunk are visible to the caller when this
    * returns. If chunks fail, the failure of the lowest-indexed one is
    * rethrown as it was thrown, after every claimed chunk has finished; a
    * chunk after a failed one may not have run.
    */
  private[repro] def chunked(n: Int, chunk: Int)(body: (Int, Int) => Unit): Unit = {
    require(n >= 0 && chunk >= 1, s"need n >= 0 and chunk >= 1, got n = $n, chunk = $chunk")
    val chunks = ((n + chunk.toLong - 1) / chunk).toInt
    if (chunks <= 1 || Cores == 1) { if (n > 0) body(0, n); return }
    val helpers = math.min(chunks, Cores) - 1
    val next = new AtomicInteger(0)
    val firstFailed = new AtomicInteger(chunks)
    val failures = new Array[Throwable](chunks)
    val done = new CountDownLatch(chunks)
    val work: Runnable = () => {
      var c = next.getAndIncrement()
      while (c < chunks) {
        // Chunks are claimed in order, so every chunk below a failed one runs.
        if (c < firstFailed.get) {
          try { val from = c * chunk; body(from, math.min(n.toLong, from.toLong + chunk).toInt) }
          catch { case t: Throwable => failures(c) = t; firstFailed.accumulateAndGet(c, (a: Int, b: Int) => math.min(a, b)) }
        }
        done.countDown()
        c = next.getAndIncrement()
      }
    }
    var h = 0
    while (h < helpers) { ForkJoinPool.commonPool().execute(work); h += 1 }
    work.run() // returns once every chunk is claimed
    done.await()
    if (firstFailed.get < chunks) throw failures(firstFailed.get)
  }
}
