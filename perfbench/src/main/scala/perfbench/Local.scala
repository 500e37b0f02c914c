package perfbench

import repro.core.CoconutTree
import repro.index.{BruteForce, SearchResult}
import repro.series.{SaxParams, SeriesGen}
import repro.storage.{DiskModel, DiskStats}

/** Shared configuration and instrumented calls into the local index
  * (`repro.core.CoconutTree`) used by the `bulk`, `query` and `update`
  * workloads.
  */
object Local {
  val Len = 64
  val P: SaxParams = SaxParams(Len, 8, 8)
  val LeafCap = 2000
  val Radius = 1

  /** Memory budget: 10% of the raw bytes being indexed. */
  def memBytes(n: Int): Long = n.toLong * Len * 8 / 10

  /** Generate `n` series of `kind` from the run's seed, timing the call and
    * fingerprinting the first series so a record shows which inputs it saw.
    */
  def generate(run: Run, kind: String, n: Int): Array[Array[Double]] = {
    val t0 = System.nanoTime()
    val data = SeriesGen.dataset(kind, n, Len, run.seed)
    run.record("gen_us_per_series") = Metric((System.nanoTime() - t0) / 1e3 / n, "us")
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(Len * 8)
    data.iterator.take(1000).foreach { s => buf.clear(); s.foreach(buf.putDouble); md.update(buf.array) }
    run.info("inputs_sha256") = md.digest().take(8).map(b => f"$b%02x").mkString
    data
  }

  def queries(run: Run, kind: String, n: Int): Array[Array[Double]] =
    SeriesGen.queries(kind, n, Len, run.seed)

  /** One timed bulk load on a fresh disk model. */
  final case class Build(tree: CoconutTree, ms: Double, io: DiskStats)

  def build(run: Run, data: Array[Array[Double]], materialized: Boolean): Option[Build] =
    run.attempt(if (materialized) "CTreeFull.bulkLoad" else "CTree.bulkLoad") {
      val disk = new DiskModel()
      val t0 = System.nanoTime()
      val t = run.tracer.span(if (materialized) "core.bulkload_full" else "core.bulkload") {
        CoconutTree.bulkLoad(data, P, LeafCap, memBytes(data.length), disk, materialized)
      }
      Build(t, (System.nanoTime() - t0) / 1e6, disk.snapshot)
    }(b => checkTree(b.tree, data))

  /** Structural check of a bulk-loaded tree: every input indexed once, in
    * invSAX order, with a sample of keys recomputed from the raw series.
    */
  def checkTree(t: CoconutTree, data: Array[Array[Double]]): Option[String] = {
    val n = data.length
    val seen = new java.util.BitSet(n)
    var prev = Long.MinValue
    var count = 0
    var bad: Option[String] = None
    val it = t.leaves.iterator
    while (bad.isEmpty && it.hasNext) {
      val leaf = it.next()
      if (leaf.occupancy == 0 || leaf.occupancy > leaf.capacity) bad = Some(s"leaf occupancy ${leaf.occupancy}")
      var i = 0
      while (bad.isEmpty && i < leaf.occupancy) {
        val e = leaf.entries(i)
        if (e.inv < prev) bad = Some(s"entry ${e.id} out of invSAX order")
        else if (e.id < 0 || e.id >= n || seen.get(e.id)) bad = Some(s"entry id ${e.id} repeated or out of range")
        else if (count % 997 == 0 && e.inv != repro.series.InvSAX.ofSeries(data(e.id), P))
          bad = Some(s"entry ${e.id} has a wrong invSAX key")
        prev = e.inv; seen.set(e.id); count += 1; i += 1
      }
    }
    bad.orElse(if (count != n) Some(s"indexed $count of $n series") else None)
  }

  /** One timed search with its modelled I/O. */
  final case class Answer(res: SearchResult, ms: Double, io: DiskStats)

  def approx(run: Run, t: CoconutTree, q: Array[Double]): Option[Answer] =
    search(run, t, "core.approx")(t.approxSearch(q, Radius))

  def exact(run: Run, t: CoconutTree, q: Array[Double]): Option[Answer] =
    search(run, t, "core.exact")(t.exactSearch(q))

  private def search(run: Run, t: CoconutTree, name: String)(body: => SearchResult): Option[Answer] =
    try {
      val before = t.disk.snapshot
      val t0 = System.nanoTime()
      val r = run.tracer.span(name)(body)
      Some(Answer(r, (System.nanoTime() - t0) / 1e6, t.disk.snapshot - before))
    } catch {
      case e: Exception => Console.err.println(s"FAILED $name: $e"); None
    }

  /** Brute-force nearest neighbour over the first `n` series, timed. */
  def truth(run: Run, data: Array[Array[Double]], n: Int, q: Array[Double]): (SearchResult, Double) = {
    val view = if (n == data.length) data else java.util.Arrays.copyOf(data, n)
    val t0 = System.nanoTime()
    val r = run.tracer.span("index.bruteforce")(BruteForce.nn(view, q))
    (r, (System.nanoTime() - t0) / 1e6)
  }

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, b)

  /** Count a query pair as attempted, and as failed when the exact answer's
    * distance differs from brute force or the approximate answer is closer
    * than the exact one.
    */
  def judge(run: Run, what: String, a: Option[Answer], e: Option[Answer], truth: SearchResult): Unit = {
    run.attempted += 2
    def fail(msg: String): Unit = { run.failed += 1; Console.err.println(s"FAILED $what: $msg") }
    e match {
      case None => fail("exact search threw")
      case Some(x) if !close(x.res.dist, truth.dist) =>
        fail(s"exact dist ${x.res.dist} (id ${x.res.id}) != brute force ${truth.dist} (id ${truth.id})")
      case _ =>
    }
    a match {
      case None => fail("approximate search threw")
      case Some(x) if x.res.dist < truth.dist - 1e-9 * math.max(1.0, truth.dist) =>
        fail(s"approximate dist ${x.res.dist} is below the exact ${truth.dist}")
      case _ =>
    }
  }

  /** Storage footprint of a non-materialized tree per raw byte. */
  def storagePerRawByte(t: CoconutTree): Double = {
    val raw = t.size.toLong * Len * 8
    (raw + t.storagePages * repro.index.SeriesIndex.AllocPageBytes).toDouble / raw
  }
}
