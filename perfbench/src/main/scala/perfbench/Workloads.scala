package perfbench

import repro.core.CoconutTree
import repro.index.SearchResult
import repro.series.SeriesGen

/** The local workloads. Each one runs a single client in a closed loop on
  * one thread: it issues its next call only when the previous one returns.
  * Set-up is repeated three times and reported as the median; every timed
  * call is warmed up first; the timed loop runs its operation types in one
  * fixed interleaved order. In a traced run every other operation is traced,
  * so `traced` and the plain samples together hold every operation.
  */
object Bulk {
  /** 1M series of 64 doubles: 512 MB of raw data, far beyond the LLC. */
  val N = 1000000

  def run(r: Run): Unit = {
    val kind = "walk"
    var data: Array[Array[Double]] = null
    var tree: CoconutTree = null
    r.timedSetup(3) {
      data = null // release the previous 512 MB before generating the next
      data = Local.generate(r, kind, N)
    }
    // Warm-up builds; the CTree one also gives the index's retained heap.
    tree = Local.build(r, data, materialized = false).map(_.tree).orNull
    val heapMb = Probe.retainedMb { tree = null }
    Local.build(r, data, materialized = true)
    Jvm.settle()

    val rounds, traced, ctree, full = new Samples
    val gc0 = Jvm.gcMs; val gcc0 = Jvm.gcCount
    val start = System.nanoTime()
    val end = r.deadline(start)
    var i = 0
    var last: CoconutTree = null
    while (i < 3 || System.nanoTime() < end) {
      r.tracer.on = r.traced && i % 2 == 1
      r.tracer.newOp()
      val c = Local.build(r, data, materialized = false)
      val f = Local.build(r, data, materialized = true)
      for (cb <- c; fb <- f) {
        (if (r.tracer.on) traced else rounds) += cb.ms + fb.ms
        ctree += cb.ms; full += fb.ms
        if (i == 0) {
          r.record("build_io_s") = Metric((cb.io.elapsedMs + fb.io.elapsedMs) / 1000.0, "s")
          r.record("build_io_ctree_s") = Metric(cb.io.elapsedMs / 1000.0, "s")
          r.record("build_io_ctreefull_s") = Metric(fb.io.elapsedMs / 1000.0, "s")
          r.record("storage_bytes_per_raw_byte") = Metric(Local.storagePerRawByte(cb.tree), "ratio")
        }
        last = cb.tree
      }
      i += 1
    }
    r.tracer.on = false
    val all = rounds ++ traced
    r.record("build_series_per_s") = Metric(N / (all.median / 1000.0), "1/s")
    r.record("round_ms_p50") = Metric(all.median, "ms")
    r.record("ctree_build_ms_p50") = Metric(ctree.median, "ms")
    r.record("ctreefull_build_ms_p50") = Metric(full.median, "ms")
    r.record("rounds") = Metric(all.size, "count")

    r.endToEnd("op_ms_mean") = Metric(all.mean, "ms")
    r.endToEnd("work_per_s") = Metric(N / (ctree.mean / 1000.0), "1/s")
    r.endToEnd("index_heap_mb") = Metric(heapMb, "MB")
    Probe.window(r, Jvm.gcMs - gc0, Jvm.gcCount - gcc0, traced, rounds)
    if (r.traced) Probe.layers(r, kind, data, last, nQueries = 5)
  }
}

/** `query`: SIMS exact search and approximate search over a bulk-loaded
  * 100k-series CTree, nothing built while timing.
  */
object Query {
  val N = 100000
  /** Distinct timed queries; p95 then has at least 15 samples beyond it. */
  val Q = 300
  val Warm = 40

  def run(r: Run): Unit = {
    val kind = "walk"
    var data: Array[Array[Double]] = null
    var qs: Array[Array[Double]] = null
    var tree: CoconutTree = null
    r.timedSetup(3) {
      data = null; tree = null
      data = Local.generate(r, kind, N)
      qs = Local.queries(r, kind, Q + Warm)
      tree = Local.build(r, data, materialized = false).map(_.tree).orNull
    }
    val heapMb = Probe.retainedMb { tree = null }
    tree = Local.build(r, data, materialized = false).get.tree
    for (w <- Q until Q + Warm) { Local.approx(r, tree, qs(w)); Local.exact(r, tree, qs(w)) }
    // The answers are checked against brute force computed here, outside the
    // timed loop, so that no full scan of the raw data runs between timed calls.
    val brute = new Samples
    val truths = Array.tabulate(Q) { k => val (t, ms) = Local.truth(r, data, N, qs(k)); brute += ms; t }

    Jvm.settle()

    val approx, exact, traced = new Samples
    var ioMs, ratio, visited = 0.0
    val gc0 = Jvm.gcMs; val gcc0 = Jvm.gcCount
    val start = System.nanoTime()
    val end = r.deadline(start)
    var i = 0
    while (i < Q || System.nanoTime() < end) {
      val k = i % Q
      val q = qs(k)
      r.tracer.on = r.traced && i % 2 == 1
      r.tracer.newOp()
      val a = Local.approx(r, tree, q)
      val e = Local.exact(r, tree, q)
      Local.judge(r, s"query $k", a, e, truths(k))
      for (x <- a) approx += x.ms
      for (x <- e) (if (r.tracer.on) traced else exact) += x.ms
      if (i < Q) for (x <- a; y <- e) {
        ioMs += y.io.elapsedMs
        visited += y.res.visitedRecords
        if (y.res.dist > 0) ratio += x.res.dist / y.res.dist else ratio += 1.0
      }
      i += 1
    }
    r.tracer.on = false
    val allExact = exact ++ traced
    r.record("approx_ms_p50") = Metric(approx.median, "ms")
    r.record("approx_ms_p95") = Metric(approx.quantile(0.95), "ms")
    r.record("exact_ms_p50") = Metric(allExact.median, "ms")
    r.record("exact_ms_p95") = Metric(allExact.quantile(0.95), "ms")
    r.record("exact_io_ms") = Metric(ioMs / Q, "ms")
    r.record("approx_ed_ratio") = Metric(ratio / Q, "ratio")
    r.record("visited_records_per_q") = Metric(visited / Q, "count")
    r.record("bruteforce_ms_p50") = Metric(brute.median, "ms")
    r.record("queries") = Metric(allExact.size, "count")

    r.endToEnd("op_ms_mean") = Metric(allExact.mean, "ms")
    r.endToEnd("work_per_s") =
      Metric((approx.size + allExact.size) / ((approx.values.sum + allExact.values.sum) / 1000.0), "1/s")
    r.endToEnd("index_heap_mb") = Metric(heapMb, "MB")
    Probe.window(r, Jvm.gcMs - gc0, Jvm.gcCount - gcc0, traced, exact)
    if (r.traced) Probe.layers(r, kind, data, tree, nQueries = 20)
  }
}

/** `update`: skewed (astronomy-like) series arriving in batches through
  * `bulkInsertMerge` on a bulk-loaded CTree, with queries after every batch.
  * Each cycle rebuilds the index from the same base, so every cycle does the
  * same work and the deterministic metrics come from the first one.
  */
object Update {
  val N = 100000
  val Batches = 100
  val BatchSize = 1000
  val QueriesPerBatch = 2

  def run(r: Run): Unit = {
    val kind = "astronomy"
    val total = N + Batches * BatchSize
    var all: Array[Array[Double]] = null
    var qs: Array[Array[Double]] = null
    var tree: CoconutTree = null
    r.timedSetup(3) {
      all = null; tree = null
      all = Local.generate(r, kind, total)
      qs = Local.queries(r, kind, Batches * QueriesPerBatch)
      tree = Local.build(r, all.take(N), materialized = false).map(_.tree).orNull
    }
    val base = all.take(N)
    val batches = Array.tabulate(Batches)(b => all.slice(N + b * BatchSize, N + (b + 1) * BatchSize))
    val heapMb = Probe.retainedMb { tree = null }
    // Warm-up: a few batches with their queries on a throwaway index.
    tree = Local.build(r, base, materialized = false).get.tree
    for (b <- 0 until 5) {
      tree.bulkInsertMerge(batches(b))
      for (j <- 0 until QueriesPerBatch) { Local.exact(r, tree, qs(j)); Local.approx(r, tree, qs(j)) }
    }
    // Brute-force answers on the data as it stands after each batch, computed
    // outside the timed loop.
    val truths = Array.tabulate(Batches, QueriesPerBatch) { (b, j) =>
      Local.truth(r, all, N + (b + 1) * BatchSize, qs(b * QueriesPerBatch + j))._1
    }

    val steps, traced, insert, approx, exact = new Samples
    var insertIoMs, exactIoMs = 0.0
    var cycleMs = 0.0
    // Collector activity of the batch steps only, not of each cycle's
    // rebuild and the full collection after it.
    var gcMs, gcCount = 0L
    val start = System.nanoTime()
    val end = r.deadline(start)
    var cycle = 0
    // Whole cycles only; another one starts if at least half of it fits.
    while (cycle == 0 || System.nanoTime() + cycleMs * 1e6 / 2 < end) {
      val c0 = System.nanoTime()
      r.tracer.on = false
      tree = Local.build(r, base, materialized = false).get.tree
      Jvm.settle()
      val gc0 = Jvm.gcMs; val gcc0 = Jvm.gcCount
      for (b <- 0 until Batches) {
        r.tracer.on = r.traced && b % 2 == 1
        r.tracer.newOp()
        val before = tree.disk.snapshot
        val t0 = System.nanoTime()
        val ok = r.attempt(s"insert batch $b") {
          r.tracer.span("core.insert")(tree.bulkInsertMerge(batches(b)))
        } { _ => if (tree.size == N + (b + 1) * BatchSize) None else Some(s"index holds ${tree.size} series") }
        val insMs = (System.nanoTime() - t0) / 1e6
        if (cycle == 0) insertIoMs += (tree.disk.snapshot - before).elapsedMs
        var stepMs = insMs
        insert += insMs
        for (j <- 0 until QueriesPerBatch) {
          val q = qs(b * QueriesPerBatch + j)
          val e = Local.exact(r, tree, q)
          val a = Local.approx(r, tree, q)
          Local.judge(r, s"cycle $cycle batch $b query $j", a, e, truths(b)(j))
          for (x <- e) { exact += x.ms; stepMs += x.ms; if (cycle == 0) exactIoMs += x.io.elapsedMs }
          for (x <- a) { approx += x.ms; stepMs += x.ms }
        }
        if (ok.isDefined) (if (r.tracer.on) traced else steps) += stepMs
      }
      gcMs += Jvm.gcMs - gc0; gcCount += Jvm.gcCount - gcc0
      if (cycle == 0) {
        r.record("update_io_s") = Metric(insertIoMs / 1000.0, "s")
        r.record("exact_io_ms") = Metric(exactIoMs / (Batches * QueriesPerBatch), "ms")
        r.record("leaf_count") = Metric(tree.leafCount, "count")
        r.record("storage_bytes_per_raw_byte") = Metric(Local.storagePerRawByte(tree), "ratio")
      }
      cycleMs = (System.nanoTime() - c0) / 1e6
      cycle += 1
    }
    r.tracer.on = false
    val allSteps = steps ++ traced
    r.record("insert_series_per_s") = Metric(BatchSize / (insert.median / 1000.0), "1/s")
    r.record("approx_ms_p50") = Metric(approx.median, "ms")
    r.record("approx_ms_p95") = Metric(approx.quantile(0.95), "ms")
    r.record("exact_ms_p50") = Metric(exact.median, "ms")
    r.record("exact_ms_p95") = Metric(exact.quantile(0.95), "ms")
    r.record("step_ms_p50") = Metric(allSteps.median, "ms")
    r.record("cycles") = Metric(cycle, "count")

    r.endToEnd("op_ms_mean") = Metric(allSteps.mean, "ms")
    r.endToEnd("work_per_s") = Metric(BatchSize * insert.size / (insert.values.sum / 1000.0), "1/s")
    r.endToEnd("index_heap_mb") = Metric(heapMb, "MB")
    Probe.window(r, gcMs, gcCount, traced, steps)
    if (r.traced) Probe.layers(r, kind, all, tree, nQueries = 20)
  }
}
