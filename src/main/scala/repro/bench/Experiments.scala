package repro.bench

import repro.baselines.{DSTree, ISaxIndex, RTreeSTR, VerticalIndex}
import repro.core.{CoconutTree, CoconutTrie}
import repro.index.SeriesIndex
import repro.series.{SaxParams, SeriesGen}
import repro.storage.DiskModel

/** A figure family of the paper's evaluation: its name and its tables,
  * computed once, on first use, and shared by every reader.
  */
final class Figure(val name: String, compute: => Seq[Table]) {
  lazy val tables: Seq[Table] = compute
}

/** The paper's evaluation (§5): [[figures]] lists every figure family in
  * the paper's order. Its tables are printed by `jobs.Figures`, checked by
  * the `bench/` suites and recorded against the paper's numbers in
  * EXPERIMENTS.md.
  *
  * Scale substitution (see DESIGN.md §4): the paper indexes 10–277 GB on a
  * RAID-0 HDD box with artificially limited RAM; we run thousands of
  * series through the same algorithms and report modelled I/O time from
  * [[repro.storage.DiskModel]], with the memory budget expressed as a
  * fraction of the raw data size — the paper's memory axis.
  */
object Experiments {

  /** Every figure family, in the paper's order. */
  val figures: Seq[Figure] = Seq(
    new Figure("8a", Seq(constructionTable("Fig 8a — construction, materialized (modelled I/O seconds)",
                                           Seq("CTreeFull", "CTrieFull", "ADSFull", "R-tree", "Vertical", "DSTree")))),
    new Figure("8b", Seq(constructionTable("Fig 8b — construction, non-materialized (modelled I/O seconds)",
                                           Seq("CTree", "CTrie", "ADS+", "R-tree+")))),
    new Figure("8c", fig8c),
    new Figure("8d", Seq(fig8de(materialized = true))),
    new Figure("8e", Seq(fig8de(materialized = false))),
    new Figure("8f", Seq(fig8f)),
    new Figure("9a", Seq(queryTable("Fig 9a — exact search (modelled I/O ms per query)",
                                    Seq("CTreeFull", "CTree", "ADSFull", "ADS+", "R-tree", "R-tree+"), exact = true))),
    new Figure("9b", Seq(queryTable("Fig 9b — approximate search (modelled I/O ms per query)",
                                    Seq("CTreeFull", "CTree", "ADSFull", "ADS+"), exact = false))),
    new Figure("9cdef", fig9cdef),
    new Figure("10a", Seq(fig10a)),
    new Figure("10b", Seq(fig10bc("astronomy"))),
    new Figure("10c", Seq(fig10bc("seismic"))),
  )

  /** The figure called `name`. */
  def figure(name: String): Figure =
    figures.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown figure: $name (known: ${figures.map(_.name).mkString(", ")})"))

  /** Every table of `figs`, in order, each followed by a blank line. */
  def render(figs: Seq[Figure]): String = figs.flatMap(_.tables).map(_.render + "\n").mkString

  /** Every workload's SAX shape, leaf capacity and seed (paper: 16 × 8 bits, leaves of 2000). */
  private val Segments = 8
  private val Bits = 6
  private val LeafCapacity = 100
  private val Seed = 1L

  /** A workload: `n` series of length `len` from generator `kind`, and
    * `nQueries` queries. The default is random walks of length 64 (paper:
    * 256). Its dataset and queries are generated once, on first use, so
    * every [[grid]] column that shares a `Cfg` shares one dataset.
    */
  private final case class Cfg(n: Int = 20000, len: Int = 64, kind: String = "walk", nQueries: Int = 50) {
    def p: SaxParams = SaxParams(len, Segments, Bits)
    def rawBytes: Long = n.toLong * len * 8
    lazy val data: Array[Array[Double]] = SeriesGen.dataset(kind, n, len, Seed)
    lazy val queries: Array[Array[Double]] = SeriesGen.queries(kind, nQueries, len, Seed)
  }

  private val Default = Cfg()
  /** Data sizes of the growing-data figures (8d, 8e, 9a, 9b). */
  private val Sizes = Seq(2500, 5000, 10000, 20000)

  /** Build one index by its paper name on a fresh disk model. */
  def build(system: String, data: Array[Array[Double]], p: SaxParams, cap: Int,
            memBytes: Long): SeriesIndex = {
    val disk = new DiskModel()
    system match {
      case "CTreeFull" => CoconutTree.bulkLoad(data, p, cap, memBytes, disk, materialized = true)
      case "CTree"     => CoconutTree.bulkLoad(data, p, cap, memBytes, disk, materialized = false)
      case "CTrieFull" => CoconutTrie.bulkLoad(data, p, cap, memBytes, disk, materialized = true)
      case "CTrie"     => CoconutTrie.bulkLoad(data, p, cap, memBytes, disk, materialized = false)
      case "ADSFull"   => ISaxIndex.build(data, p, cap, memBytes, disk, materialized = true)
      case "ADS+"      => ISaxIndex.build(data, p, cap, memBytes, disk, materialized = false)
      case "R-tree"    => RTreeSTR.build(data, p, cap, memBytes, disk, materialized = true)
      case "R-tree+"   => RTreeSTR.build(data, p, cap, memBytes, disk, materialized = false)
      case "DSTree"    => DSTree.build(data, p, cap, disk)
      case "Vertical"  => VerticalIndex.build(data, p, disk)
      case other       => throw new IllegalArgumentException(s"unknown system: $other")
    }
  }

  /** One figure table of `systems` × `columns`, where a column is (label,
    * workload, memory budget in bytes): each cell builds the system over
    * the column's dataset on a fresh disk and reports `measure` of it.
    */
  private def grid(title: String, unit: String, systems: Seq[String], columns: Seq[(String, Cfg, Long)])
                  (measure: (SeriesIndex, Cfg) => Double): Table =
    Table.build(title, unit, columns.map(_._1), systems) { put =>
      for ((label, cfg, memBytes) <- columns; s <- systems)
        put(s, label, measure(build(s, cfg.data, cfg.p, LeafCapacity, memBytes), cfg))
    }

  /** The [[grid]] measure of modelled I/O seconds charged to the index's
    * disk so far.
    */
  private val ioSeconds: (SeriesIndex, Cfg) => Double = (idx, _) => idx.disk.elapsedMs / 1000.0

  val memoryConfigs: Seq[(String, Double)] =
    Seq("ample" -> 4.0, "mem=50%" -> 0.5, "mem=10%" -> 0.1, "mem=2%" -> 0.02)

  // ------------------------------------------------------------- Figure 8a/8b

  /** Fig. 8a/8b: construction seconds of `systems` at every memory configuration. */
  private def constructionTable(title: String, systems: Seq[String]): Table =
    grid(title, "s", systems,
         memoryConfigs.map { case (label, frac) => (label, Default, (Default.rawBytes * frac).toLong) })(ioSeconds)

  // --------------------------------------------------------------- Figure 8c

  /** Fig. 8c: index storage footprint (MB) + leaf fill factor. */
  private def fig8c: Seq[Table] = {
    val cfg = Default
    val systems = Seq("CTreeFull", "CTrieFull", "ADSFull", "R-tree", "DSTree",
                      "CTree", "CTrie", "ADS+", "R-tree+")
    val built = systems.map(s => s -> build(s, cfg.data, cfg.p, LeafCapacity, cfg.rawBytes)).toMap
    val space = Table.build("Fig 8c — index storage (MB; raw data = %.1f MB)".format(cfg.rawBytes / 1e6),
                            "MB", Seq("space"), systems) { put =>
      systems.foreach(s =>
        put(s, "space", built(s).storagePages * repro.index.SeriesIndex.AllocPageBytes / 1e6))
    }
    val fill = Table.build("Fig 8c — mean leaf fill factor", "fraction", Seq("fill"), systems) { put =>
      systems.foreach(s => put(s, "fill", built(s).avgLeafFill))
    }
    Seq(space, fill)
  }

  // ------------------------------------------------------------ Figure 8d/8e

  /** Fig. 8d/8e: fixed memory, growing data size. `materialized` selects
    * the 8d (CTreeFull vs ADSFull) or 8e (CTree vs ADS+) pairing.
    */
  private def fig8de(materialized: Boolean): Table = {
    val systems = if (materialized) Seq("CTreeFull", "ADSFull") else Seq("CTree", "ADS+")
    // Memory fixed in absolute terms, sized to hold the *smallest*
    // dataset's working set (the paper's fixed 8 GB desktop vs gradually
    // growing data): raw records for the materialized pairing, summary
    // records for the non-materialized one — ample on the left of the
    // axis, scarce on the right.
    val smallest = Default.copy(n = Sizes.head)
    val memBytes =
      if (materialized) (smallest.rawBytes * 1.1).toLong
      else (Sizes.head.toLong * (smallest.p.wordBytes + 8) * 11 / 10)
    grid(s"Fig 8${if (materialized) "d" else "e"} — fixed memory, growing data", "s", systems,
         Sizes.map(n => (s"N=$n", Default.copy(n = n), memBytes)))(ioSeconds)
  }

  // --------------------------------------------------------------- Figure 8f

  /** Fig. 8f: variable series length at a fixed total volume, tight memory. */
  private def fig8f: Table = {
    val shapes = Seq((64, 20000), (128, 10000), (256, 5000), (512, 2500))
    val systems = Seq("CTreeFull", "CTree", "ADSFull", "ADS+")
    grid("Fig 8f — variable series length (fixed total volume, mem=2%)", "s", systems,
         shapes.map { case (len, n) =>
           val cfg = Cfg(n = n, len = len)
           (s"len=$len", cfg, (cfg.rawBytes * 0.02).toLong)
         })(ioSeconds)
  }

  // ------------------------------------------------------------ Figure 9a/9b

  /** Average modelled I/O milliseconds, visited records and answer
    * distance per query of `queries` on the built index `idx`.
    */
  private def queryStats(idx: SeriesIndex, queries: Array[Array[Double]],
                         exact: Boolean, radius: Int): (Double, Double, Double) = {
    val disk = idx.disk
    var ms = 0.0; var visited = 0.0; var dist = 0.0
    for (q <- queries) {
      val s0 = disk.snapshot
      val r = if (exact) idx.exactSearch(q, radius) else idx.approxSearch(q, radius)
      ms += (disk.snapshot - s0).elapsedMs
      visited += r.visitedRecords
      dist += r.dist
    }
    (ms / queries.length, visited / queries.length, dist / queries.length)
  }

  /** Fig. 9a/9b: exact or approximate query milliseconds of `systems` at
    * every data size, mem=10%, radius 1.
    */
  private def queryTable(title: String, systems: Seq[String], exact: Boolean): Table =
    grid(title, "ms", systems, Sizes.map { n =>
      val cfg = Default.copy(n = n)
      (s"N=$n", cfg, (cfg.rawBytes * 0.1).toLong)
    })((idx, cfg) => queryStats(idx, cfg.queries, exact, radius = 1)._1)

  // --------------------------------------------------------- Figure 9c/d/e/f

  /** Fig. 9c–9f: approximate time (9c) and quality (9d), exact time (9e)
    * and visited records (9f) on the 40 GB-equivalent dataset, including
    * the CTree(radius) sweep.
    */
  private def fig9cdef: Seq[Table] = {
    val data = Default.data; val queries = Default.queries
    val mem = (Default.rawBytes * 0.1).toLong
    // (label, system, radius)
    val variants = Seq(("CTree(0)", "CTree", 0), ("CTree(1)", "CTree", 1),
                       ("CTree(10)", "CTree", 10), ("CTreeFull(1)", "CTreeFull", 1),
                       ("ADSFull", "ADSFull", 0), ("ADS+", "ADS+", 0))
    val stats = variants.map { case (label, sys, r) =>
      val approx = queryStats(build(sys, data, Default.p, LeafCapacity, mem), queries, exact = false, radius = r)
      val exact = queryStats(build(sys, data, Default.p, LeafCapacity, mem), queries, exact = true, radius = r)
      label -> (approx, exact)
    }.toMap
    val labels = variants.map(_._1)
    def tbl(title: String, unit: String, f: ((Double, Double, Double), (Double, Double, Double)) => Double) =
      Table.build(title, unit, Seq(unit), labels) { put =>
        labels.foreach(l => put(l, unit, f(stats(l)._1, stats(l)._2)))
      }
    Seq(tbl("Fig 9c — approximate search time", "ms", (a, _) => a._1),
        tbl("Fig 9d — approximate answer quality (avg ED)", "ED", (a, _) => a._3),
        tbl("Fig 9e — exact search time", "ms", (_, e) => e._1),
        // 9f counts refinement-phase fetches (exact minus approximate-phase
        // candidates) so materialized and non-materialized systems compare.
        tbl("Fig 9f — exact search visited records", "records", (a, e) => e._2 - a._2))
  }

  // -------------------------------------------------------------- Figure 10a

  /** Fig. 10a: interleaved bulk updates + exact queries, tight memory.
    * Half the data is bulk-loaded up front; the rest arrives in batches of
    * the configured size, with exact queries interleaved (20 in total).
    * Coconut bulk-loads each batch (sorted merge into the index); ADS+
    * inserts top-down through its buffer.
    */
  private def fig10a: Table = {
    val cfg = Default
    val batchSizes = Seq(1, 2, 10, 100, 1000)
    val data = cfg.data
    val queries = cfg.queries.take(20)
    val half = cfg.n / 2
    val memBytes = math.max(1024L, (cfg.rawBytes * 0.0001).toLong) // paper: 0.01% of the data
    // Updates stress transfer-vs-seek; model an SSD-class device so the
    // crossover is visible at our scale (see EXPERIMENTS.md).
    def newDisk() = new DiskModel(seekMs = 0.5)
    val systems = Seq("CTree", "ADS+")
    Table.build("Fig 10a — interleaved updates + queries (total modelled I/O s)",
                "s", batchSizes.map(b => s"batch=$b"), systems) { put =>
      for (b <- batchSizes) {
        val nBatches = (cfg.n - half + b - 1) / b
        val queryEvery = math.max(1, nBatches / 10)
        // `start` builds the index over the first half on a fresh disk and
        // returns it with its call that inserts `data(from until until)`.
        def run(system: String)(start: DiskModel => (SeriesIndex, (Int, Int) => Unit)): Unit = {
          val disk = newDisk()
          val (idx, insert) = start(disk)
          var qi = 0
          var off = half
          var batchNo = 0
          while (off < cfg.n) {
            val end = math.min(cfg.n, off + b)
            insert(off, end)
            batchNo += 1
            if (batchNo % queryEvery == 0 && qi < 20) {
              idx.exactSearch(queries(qi % queries.length)); idx.exactSearch(queries((qi + 1) % queries.length))
              qi += 2
            }
            off = end
          }
          put(system, s"batch=$b", disk.elapsedMs / 1000.0)
        }
        // Coconut-Tree: initial bulk load + per-batch sorted merge.
        run("CTree") { disk =>
          val t = CoconutTree.bulkLoad(data.slice(0, half), cfg.p, LeafCapacity, memBytes, disk,
                                       materialized = false)
          (t, (from, until) => t.bulkInsertMerge(data.slice(from, until)))
        }
        // ADS+: initial build + top-down batch inserts.
        run("ADS+") { disk =>
          val a = ISaxIndex.empty(data, cfg.p, LeafCapacity, memBytes, disk, materialized = false)
          a.insertSlice(0, half)
          (a, a.insertSlice)
        }
      }
    }
  }

  // ----------------------------------------------------------- Figure 10b/c

  /** Fig. 10b/10c: complete workload (construction + 100 exact queries) on
    * the real-dataset stand-ins, across memory configurations.
    */
  private def fig10bc(kind: String): Table = {
    val cfg = Cfg(n = 15000, kind = kind, nQueries = 100)
    grid(s"Fig 10${if (kind == "astronomy") "b" else "c"} — complete workload, $kind-like data", "s",
         Seq("CTreeFull", "CTree", "ADSFull", "ADS+"),
         Seq("mem=50%" -> 0.5, "mem=2%" -> 0.02).map { case (label, frac) =>
           (label, cfg, (cfg.rawBytes * frac).toLong)
         }) { (idx, _) =>
      cfg.queries.foreach(idx.exactSearch(_))
      ioSeconds(idx, cfg)
    }
  }
}
