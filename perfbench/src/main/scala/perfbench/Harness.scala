package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.collection.mutable.ArrayBuffer

/** A metric value with its unit. */
final case class Metric(value: Double, unit: String)

/** Wall-clock samples of one operation type, in milliseconds. */
final class Samples {
  private val buf = ArrayBuffer.empty[Double]
  def +=(ms: Double): Unit = buf += ms
  def size: Int = buf.length
  def values: Seq[Double] = buf.toSeq
  def ++(o: Samples): Samples = { val s = new Samples; (values ++ o.values).foreach(s += _); s }
  def median: Double = quantile(0.5)
  def mean: Double = if (buf.isEmpty) Double.NaN else buf.sum / buf.length
  /** Linear-interpolated quantile (the same rule as numpy's default). */
  def quantile(p: Double): Double = Samples.quantile(buf.toArray, p)
}

object Samples {
  def quantile(xs: Array[Double], p: Double): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val pos = p * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}

/** Process-wide counters read at layer boundaries: thread allocation and
  * collector activity.
  */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans

  def allocatedBytes: Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)
  def gcMs: Long = { var s = 0L; gcs.forEach(g => s += math.max(0L, g.getCollectionTime)); s }
  def gcCount: Long = { var s = 0L; gcs.forEach(g => s += math.max(0L, g.getCollectionCount)); s }

  /** Heap in use after a full collection, in bytes: the least of three
    * readings, since a reading can include objects allocated around the call.
    */
  def retainedHeap(): Long =
    (0 until 3).map { _ => System.gc(); ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed }.min

  /** Move everything live into the old generation with a full collection,
    * so that the index is not copied between generations, and its memory
    * layout changed, while it is being timed.
    */
  def settle(): Unit = System.gc()

  def uptimeS: Double = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
  def flags: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
  def gcNames: Seq[String] = gcs.asScala.toSeq.map(_.getName)
}

/** Keeps results of measured kernels alive so the JIT cannot drop them. */
object Sink {
  @volatile var value: Double = 0.0
  def apply(x: Double): Unit = value += x
}

/** One span: a timed call into a layer's public API, made from the
  * benchmark's side. `op` ties the spans of one benchmark operation
  * together; `parent` is the index of the enclosing span or -1.
  */
final case class Span(id: Int, name: String, op: Long, parent: Int,
                      startNs: Long, endNs: Long, allocBytes: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder. While `on` is false, `span` only runs its body;
  * a traced run turns it on for every other operation so that the same run
  * also measures the operations without tracing.
  */
final class Tracer {
  var on: Boolean = false
  val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextOp = 0L
  var op: Long = 0L

  def newOp(): Unit = { nextOp += 1; op = nextOp }

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val id = spans.length
      spans += null // reserve the slot so children get higher ids; filled on exit
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val a0 = Jvm.allocatedBytes
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        spans(id) = Span(id, name, op, parent, t0, t1, Jvm.allocatedBytes - a0)
        stack = stack.tail
      }
    }

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  def medianMs(name: String): Double = Samples.quantile(named(name).map(_.ms).toArray, 0.5)
  def medianAllocMb(name: String): Double =
    Samples.quantile(named(name).map(_.allocBytes / 1e6).toArray, 0.5)

  def writeJsonl(path: java.nio.file.Path): Unit = {
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.foreach { s =>
      w.write(s"""{"id":${s.id},"name":"${s.name}","op":${s.op},"parent":${s.parent},""" +
              s""""start_ns":${s.startNs},"end_ns":${s.endNs},"alloc_bytes":${s.allocBytes}}""")
      w.newLine()
    } finally w.close()
  }
}

/** State of one benchmark run: options, failure accounting and the
  * metrics it reports.
  */
final class Run(val workload: String, val seed: Long, val seconds: Double, val traced: Boolean) {
  val tracer = new Tracer
  var attempted = 0L
  var failed = 0L
  /** Metrics of the JSON result line: end-to-end when untraced, per-layer when traced. */
  val endToEnd = mutable.LinkedHashMap.empty[String, Metric]
  val perLayer = mutable.LinkedHashMap.empty[String, Metric]
  /** The workload's paper-facing metrics (see METRICS.md), written to the record. */
  val record = mutable.LinkedHashMap.empty[String, Metric]
  val info = mutable.LinkedHashMap.empty[String, String]

  /** Run one operation; an exception or a failed check counts it as failed. */
  def attempt[A](what: String)(body: => A)(check: A => Option[String]): Option[A] = {
    attempted += 1
    try {
      val a = body
      check(a) match {
        case None => Some(a)
        case Some(msg) => failed += 1; Console.err.println(s"FAILED $what: $msg"); Some(a)
      }
    } catch {
      case e: Exception =>
        failed += 1
        Console.err.println(s"FAILED $what: $e")
        None
    }
  }

  /** Runs the set-up step `k` times; `setup_s` is the median. */
  def timedSetup(k: Int)(step: => Unit): Unit = {
    val s = new Samples
    for (_ <- 0 until k) {
      val t0 = System.nanoTime()
      step
      s += (System.nanoTime() - t0) / 1e6
    }
    endToEnd("setup_s") = Metric(s.median / 1000.0, "s")
    info("setup_s_samples") = s.values.map(v => f"${v / 1000}%.3f").mkString(" ")
  }

  def deadline(startNs: Long): Long = startNs + (seconds * 1e9).toLong
}
