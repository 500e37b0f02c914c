package perfbench

import repro.core.CoconutTree
import repro.series.{InvSAX, SAX, Series, SeriesGen}

import Local.{Len, P}

/** Per-layer measurements: counters read around the timed window, and, in
  * a traced run, a pass that times each layer's public functions on the
  * workload's own data and index. Every workload reports the same set, so
  * a change to one layer can be seen to move one workload and not another.
  */
object Probe {
  /** Heap retained by what `drop` releases, in MB, measured after full GCs. */
  def retainedMb(drop: => Unit): Double = {
    val withIt = Jvm.retainedHeap()
    drop
    (withIt - Jvm.retainedHeap()) / 1e6
  }

  /** Collector activity during the timed operations (`gcMs` and `gcCount`
    * are deltas), and the tracing overhead: the median of the traced
    * operations over that of the untraced ones.
    */
  def window(r: Run, gcMs: Long, gcCount: Long, traced: Samples, plain: Samples): Unit = {
    r.record("window_gc_ms") = Metric(gcMs.toDouble, "ms")
    r.record("window_gc_count") = Metric(gcCount.toDouble, "count")
    if (r.traced) {
      r.perLayer("jvm.gc_ms") = r.record("window_gc_ms")
      r.perLayer("jvm.gc_count") = r.record("window_gc_count")
      r.perLayer("trace.overhead_frac") = Metric(traced.median / plain.median - 1.0, "frac")
    }
  }

  /** Nanoseconds per element of `f` over `m` elements, median of 3 passes. */
  private def kernelNs(r: Run, name: String, m: Int)(f: Int => Double): Metric = {
    val s = new Samples
    for (_ <- 0 until 3) {
      val t0 = System.nanoTime()
      var acc = 0.0
      r.tracer.span(name) { var i = 0; while (i < m) { acc += f(i); i += 1 } }
      Sink(acc)
      s += (System.nanoTime() - t0).toDouble / m
    }
    Metric(s.median, "ns")
  }

  /** Share of the tree's summaries whose MINDIST to `q` is below `bound`. */
  private def survivorFrac(tree: CoconutTree, q: Array[Double], bound: Double): Double = {
    val qPaa = Series.paa(q, P.w)
    var n = 0L
    tree.leaves.foreach(_.entries.foreach { e =>
      if (SAX.minDistPaaToSax(qPaa, InvSAX.fromLong(e.inv, P), P) < bound) n += 1
    })
    n.toDouble / tree.size
  }

  def layers(r: Run, kind: String, data: Array[Array[Double]], tree: CoconutTree, nQueries: Int): Unit = {
    val t = r.tracer
    val pl = r.perLayer
    t.on = true
    t.newOp()
    pl("series.gen_us_per_series") = r.record("gen_us_per_series")

    // repro.series kernels over the workload's inputs (at most 100k of them).
    val m = math.min(data.length, 100000)
    val paas = new Array[Array[Double]](m)
    val words = new Array[Array[Int]](m)
    val invs = new Array[Long](m)
    val pq = Local.queries(r, kind, nQueries)
    val q0 = pq(0)
    val qPaa = Series.paa(q0, P.w)
    pl("series.paa_ns") = kernelNs(r, "series.paa", m) { i => paas(i) = Series.paa(data(i), P.w); paas(i)(0) }
    pl("series.sax_ns") = kernelNs(r, "series.sax", m) { i => words(i) = SAX.fromPaa(paas(i), P); words(i)(0) }
    pl("series.invsax_ns") = kernelNs(r, "series.invsax", m) { i => invs(i) = InvSAX.toLong(words(i), P); invs(i).toDouble }
    pl("series.fromlong_ns") = kernelNs(r, "series.fromlong", m) { i => InvSAX.fromLong(invs(i), P)(0) }
    pl("series.mindist_ns") = kernelNs(r, "series.mindist", m) { i => SAX.minDistPaaToSax(qPaa, words(i), P) }
    pl("series.ed_ns") = kernelNs(r, "series.ed", m) { i =>
      Series.squaredEuclideanAbandon(data(i), q0, Double.PositiveInfinity)
    }
    val summarizeNs = pl("series.paa_ns").value + pl("series.sax_ns").value + pl("series.invsax_ns").value

    // repro.core build and repro.storage build I/O: one CTree + CTreeFull round.
    t.newOp()
    for (c <- Local.build(r, data, materialized = false); f <- Local.build(r, data, materialized = true)) {
      pl("storage.build_random_ops") = Metric((c.io.randomOps + f.io.randomOps).toDouble, "count")
      pl("storage.build_seq_blocks") = Metric((c.io.seqBlocks + f.io.seqBlocks).toDouble, "count")
      pl("storage.build_blocks_written") = Metric((c.io.blocksWritten + f.io.blocksWritten).toDouble, "count")
    }
    val buildSpans = t.named("core.bulkload")
    pl("core.bulkload_ms") = Metric(t.medianMs("core.bulkload"), "ms")
    pl("core.bulkload_full_ms") = Metric(t.medianMs("core.bulkload_full"), "ms")
    pl("core.bulkload_self_ms") = Metric(
      Samples.quantile(buildSpans.map(s => s.ms - summarizeNs * data.length / 1e6).toArray, 0.5), "ms")
    pl("core.bulkload_alloc_mb") = Metric(t.medianAllocMb("core.bulkload"), "MB")

    // Queries: approximate, exact and the brute-force yardstick.
    var exRandom, exSeq, apBlocks, visited, survivors = 0.0
    for (k <- 0 until nQueries) {
      t.newOp()
      val a = Local.approx(r, tree, pq(k))
      val e = Local.exact(r, tree, pq(k))
      val (truth, _) = Local.truth(r, data, tree.size, pq(k))
      Local.judge(r, s"probe query $k", a, e, truth)
      for (x <- a; y <- e) {
        exRandom += y.io.randomOps; exSeq += y.io.seqBlocks; apBlocks += x.io.blocksRead
        visited += y.res.visitedRecords
        survivors += survivorFrac(tree, pq(k), x.res.dist)
      }
    }
    pl("storage.exact_random_ops_per_q") = Metric(exRandom / nQueries, "count")
    pl("storage.exact_seq_blocks_per_q") = Metric(exSeq / nQueries, "count")
    pl("storage.approx_blocks_per_q") = Metric(apBlocks / nQueries, "count")
    pl("core.approx_ms") = Metric(t.medianMs("core.approx"), "ms")
    pl("core.exact_ms") = Metric(t.medianMs("core.exact"), "ms")
    val simsSelf = t.spans.toSeq.groupBy(_.op).values.flatMap { ss =>
      for (e <- ss.find(_.name == "core.exact"); a <- ss.find(_.name == "core.approx")) yield e.ms - a.ms
    }
    pl("core.sims_self_ms") = Metric(Samples.quantile(simsSelf.toArray, 0.5), "ms")
    pl("core.exact_alloc_mb_per_q") = Metric(t.medianAllocMb("core.exact"), "MB")
    pl("core.visited_records_per_q") = Metric(visited / nQueries, "count")
    pl("core.sims_survivor_frac") = Metric(survivors / nQueries, "frac")
    pl("index.bruteforce_ms") = Metric(t.medianMs("index.bruteforce"), "ms")

    // Inserts: two batches of 1,000 new series merged into the index.
    pl("core.leaf_count") = Metric(tree.leafCount, "count")
    pl("core.avg_leaf_fill") = Metric(tree.avgLeafFill, "frac")
    var blocks = 0.0
    val extra = SeriesGen.queries(kind, 2 * Update.BatchSize, Len, r.seed + 1)
    for (b <- 0 until 2) {
      t.newOp()
      val batch = extra.slice(b * Update.BatchSize, (b + 1) * Update.BatchSize)
      val before = tree.disk.snapshot
      val n0 = tree.size
      r.attempt(s"probe insert $b")(t.span("core.insert")(tree.bulkInsertMerge(batch))) { _ =>
        if (tree.size == n0 + batch.length) None else Some(s"index holds ${tree.size} series")
      }
      val d = tree.disk.snapshot - before
      blocks += d.blocksRead + d.blocksWritten
    }
    pl("storage.insert_blocks_per_series") = Metric(blocks / (2 * Update.BatchSize), "count")
    pl("core.insert_ms_per_batch") = Metric(t.medianMs("core.insert"), "ms")
    pl("core.insert_alloc_mb_per_batch") = Metric(t.medianAllocMb("core.insert"), "MB")
    pl("trace.spans") = Metric(t.spans.length.toDouble, "count")
    t.on = false
  }
}
