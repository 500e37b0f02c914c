package repro.storage

import scala.collection.mutable

/** Disk-access-model simulator (paper §3.1, Table 1 and [4]).
  *
  * The paper's evaluation ran on a RAID-0 HDD array with artificially
  * limited RAM; its analysis is carried out in the disk access model
  * (blocks transferred, random vs sequential). Our container has neither
  * spinning disks nor a controllable memory limit, so every index in this
  * repo charges its block accesses to a `DiskModel` and the benchmarks
  * report modelled I/O time. Defaults approximate a 7.2k-RPM HDD:
  * 64 KiB blocks, 8 ms per random access (seek + rotational latency),
  * 100 MB/s sequential transfer.
  *
  * A [[SimFile]] tracks a per-file cursor so that accesses to consecutive
  * blocks are charged as sequential and anything else as random — the same
  * distinction that drives every result in the paper.
  */
final class DiskModel(
    val blockBytes: Int = 64 * 1024,
    val seekMs: Double = 8.0,
    val mbPerSec: Double = 100.0,
) {
  /** Transfer time for one block, ms. */
  val transferMs: Double = blockBytes / (mbPerSec * 1024 * 1024) * 1000.0

  var randomOps: Long = 0L   // accesses that required a seek
  var seqBlocks: Long = 0L   // blocks transferred sequentially (no seek)
  var blocksRead: Long = 0L
  var blocksWritten: Long = 0L

  private val files = mutable.LinkedHashMap.empty[String, SimFile]

  /** Get or create the named simulated file. */
  def file(name: String, recordBytes: Int): SimFile =
    files.getOrElseUpdate(name, new SimFile(name, this, recordBytes))

  private[storage] def charge(random: Boolean, blocks: Long, write: Boolean): Unit = {
    if (random) { randomOps += 1; if (blocks > 1) seqBlocks += blocks - 1 }
    else seqBlocks += blocks
    if (write) blocksWritten += blocks else blocksRead += blocks
  }

  /** Modelled elapsed I/O time in milliseconds. */
  def elapsedMs: Double = randomOps * (seekMs + transferMs) + seqBlocks * transferMs

  /** Snapshot counters (for asserting deltas in tests/benches). */
  def snapshot: DiskStats = DiskStats(randomOps, seqBlocks, blocksRead, blocksWritten, elapsedMs)
}

final case class DiskStats(randomOps: Long, seqBlocks: Long, blocksRead: Long,
                           blocksWritten: Long, elapsedMs: Double) {
  def -(o: DiskStats): DiskStats =
    DiskStats(randomOps - o.randomOps, seqBlocks - o.seqBlocks, blocksRead - o.blocksRead,
              blocksWritten - o.blocksWritten, elapsedMs - o.elapsedMs)
}

/** One simulated file of fixed-size records, with sequential/random
  * detection via a block cursor. Reading a record that lives in the block
  * the cursor already points at is free (block cache of one).
  */
final class SimFile(val name: String, val disk: DiskModel, val recordBytes: Int) {
  require(recordBytes > 0)
  /** Records per block (≥ 1; a record larger than a block spans blocks). */
  val recordsPerBlock: Int = math.max(1, disk.blockBytes / recordBytes)
  /** Blocks per record when records are larger than a block. */
  private val blocksPerRecord: Long = math.max(1L, (recordBytes.toLong + disk.blockBytes - 1) / disk.blockBytes)

  private var cursor: Long = -2L // last block touched; -2 = nothing yet

  def resetCursor(): Unit = cursor = -2L

  def blockOf(recordIdx: Long): Long =
    if (recordBytes <= disk.blockBytes) recordIdx / recordsPerBlock
    else recordIdx * blocksPerRecord

  def blocksFor(nRecords: Long): Long =
    if (recordBytes <= disk.blockBytes) (nRecords + recordsPerBlock - 1) / recordsPerBlock
    else nRecords * blocksPerRecord

  /** Read one record (charges at most one block / record span). */
  def readRecord(recordIdx: Long): Unit = {
    val b = blockOf(recordIdx)
    if (b == cursor && blocksPerRecord == 1) () // in cache, free
    else {
      val random = b != cursor + 1 && b != cursor
      disk.charge(random, blocksPerRecord, write = false)
      cursor = b + blocksPerRecord - 1
    }
  }

  /** Read `nRecords` starting at `fromRecord`: one seek (if not already
    * positioned) plus sequential transfer.
    */
  def readRange(fromRecord: Long, nRecords: Long): Unit = {
    if (nRecords <= 0) return
    val b0 = blockOf(fromRecord)
    val b1 = blockOf(fromRecord + nRecords - 1) + blocksPerRecord - 1
    val blocks = b1 - b0 + 1
    val random = b0 != cursor + 1 && b0 != cursor
    val effective = if (b0 == cursor) blocks - 1 else blocks // first block cached
    if (effective > 0) disk.charge(random, effective, write = false)
    cursor = b1
  }

  /** Append `nRecords` sequentially (bulk write). */
  def appendRange(nRecords: Long): Unit = {
    if (nRecords <= 0) return
    disk.charge(random = false, blocksFor(nRecords), write = true)
  }

  /** Sequentially scan the whole file of `nRecords`. */
  def scan(nRecords: Long): Unit = readRange(0, nRecords)

  /** Read or write `nRecords` that live in *non-contiguous* blocks (e.g. a
    * leaf grown through splits, scattered over the disk): every block is a
    * separate random access. This is the access pattern bottom-up bulk
    * loading eliminates.
    */
  def accessScattered(nRecords: Long, write: Boolean): Unit = {
    if (nRecords <= 0) return
    val blocks = blocksFor(nRecords)
    var i = 0L
    while (i < blocks) { disk.charge(random = true, 1, write); i += 1 }
    cursor = -2L
  }

  /** Charge `count` record accesses that are each a guaranteed cache miss
    * at an unpredictable position (used by analytical models of scattered
    * access patterns, e.g. buffer-pool misses or unsorted-to-sorted record
    * moves). Invalidates the cursor.
    */
  def chargeRandom(count: Long, write: Boolean): Unit = {
    var i = 0L
    while (i < count) { disk.charge(random = true, blocksPerRecord, write); i += 1 }
    cursor = -2L
  }
}

object ExternalSort {
  /** Charge the I/O of external-sorting `nRecords` records of `recordBytes`
    * each with a memory budget of `memBytes` (paper §3.1): one
    * partition pass (read + write, sequential) and, if more than one run,
    * one merge pass (read + write, sequential). Returns the number of runs.
    * One merge pass is exact only when M > √N (footnote 7), and not every
    * configuration meets it: Fig 10a's 1 KiB budget, smaller than one block,
    * sorts its CTree summaries in 137 runs, and Fig 8a at mem=2% sorts
    * CTreeFull records in 52 runs with a fan-in of about 2. Both are charged
    * one merge pass, which undercharges them (EXPERIMENTS.md, known
    * deviations).
    */
  def charge(file: SimFile, nRecords: Long, memBytes: Long): Int = {
    val totalBytes = nRecords * file.recordBytes
    val runs = math.max(1L, (totalBytes + memBytes - 1) / memBytes).toInt
    if (totalBytes <= memBytes) return 1 // sorted entirely in memory, no extra I/O
    file.scan(nRecords)       // read input
    file.appendRange(nRecords) // write sorted runs
    if (runs > 1) {
      file.resetCursor()
      file.scan(nRecords)        // merge: read all runs
      file.appendRange(nRecords) // write final sorted order
    }
    runs
  }
}
