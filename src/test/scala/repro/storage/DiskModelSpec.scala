package repro.storage

import org.scalatest.funsuite.AnyFunSuite

class DiskModelSpec extends AnyFunSuite {

  private def freshDisk = new DiskModel(blockBytes = 1024, seekMs = 10.0, mbPerSec = 1.0)

  test("record geometry: records per block and blocks for n records") {
    val d = freshDisk
    val f = d.file("a", 100) // 10 records per 1024-byte block
    assert(f.recordsPerBlock == 10)
    assert(f.blocksFor(1) == 1)
    assert(f.blocksFor(10) == 1)
    assert(f.blocksFor(11) == 2)
    assert(f.blocksFor(0) == 0)
  }
  test("records larger than a block span multiple blocks") {
    val d = freshDisk
    val f = d.file("big", 2500) // 3 blocks per record
    assert(f.blocksFor(1) == 3)
    assert(f.blocksFor(2) == 6)
  }
  test("first record read is a random access") {
    val d = freshDisk
    d.file("a", 100).readRecord(0)
    assert(d.randomOps == 1 && d.seqBlocks == 0 && d.blocksRead == 1)
  }
  test("re-reading the same block is free (cached cursor)") {
    val d = freshDisk
    val f = d.file("a", 100)
    f.readRecord(0); f.readRecord(5); f.readRecord(9)
    assert(d.randomOps == 1 && d.blocksRead == 1)
  }
  test("reading the next block is sequential") {
    val d = freshDisk
    val f = d.file("a", 100)
    f.readRecord(0); f.readRecord(10)
    assert(d.randomOps == 1 && d.seqBlocks == 1 && d.blocksRead == 2)
  }
  test("skipping a block is a random access") {
    val d = freshDisk
    val f = d.file("a", 100)
    f.readRecord(0); f.readRecord(25)
    assert(d.randomOps == 2)
  }
  test("scan charges one seek plus sequential transfer") {
    val d = freshDisk
    d.file("a", 100).scan(100) // 10 blocks
    assert(d.randomOps == 1 && d.seqBlocks == 9 && d.blocksRead == 10)
  }
  test("readRange after scan continues sequentially") {
    val d = freshDisk
    val f = d.file("a", 100)
    f.scan(100)
    f.readRange(100, 50)
    assert(d.randomOps == 1) // continued right after the scan
  }
  test("appendRange is sequential") {
    val d = freshDisk
    d.file("a", 100).appendRange(100)
    assert(d.randomOps == 0 && d.seqBlocks == 10 && d.blocksWritten == 10)
  }
  test("accessScattered charges one random op per block") {
    val d = freshDisk
    d.file("a", 100).accessScattered(25, write = false) // 3 blocks
    assert(d.randomOps == 3 && d.blocksRead == 3)
  }
  test("chargeRandom charges one random op per record") {
    val d = freshDisk
    d.file("a", 100).chargeRandom(7, write = true)
    assert(d.randomOps == 7 && d.blocksWritten == 7)
  }
  test("elapsedMs combines seeks and transfer") {
    val d = freshDisk // transfer = 1024/(1MB/s) ≈ 0.9766ms/block
    d.file("a", 100).scan(100)
    val expected = 1 * (10.0 + d.transferMs) + 9 * d.transferMs
    assert(math.abs(d.elapsedMs - expected) < 1e-9)
  }
  test("random access is far more expensive than sequential for same volume") {
    val d1 = freshDisk; val d2 = freshDisk
    d1.file("a", 100).scan(1000)
    d2.file("a", 100).accessScattered(1000, write = false)
    assert(d2.elapsedMs > d1.elapsedMs * 5)
  }
  test("snapshot deltas subtract correctly") {
    val d = freshDisk
    val f = d.file("a", 100)
    f.scan(100)
    val s1 = d.snapshot
    f.accessScattered(10, write = true)
    val delta = d.snapshot - s1
    assert(delta.randomOps == 1 && delta.blocksWritten == 1 && delta.blocksRead == 0)
  }
  test("files are memoized by name") {
    val d = freshDisk
    assert(d.file("x", 100) eq d.file("x", 100))
  }
  test("external sort charges nothing when data fits in memory") {
    val d = freshDisk
    val f = d.file("a", 100)
    assert(ExternalSort.charge(f, 100, memBytes = 100 * 100) == 1)
    assert(d.blocksRead == 0 && d.blocksWritten == 0)
  }
  test("external sort charges two passes when spilling") {
    val d = freshDisk
    val f = d.file("a", 100) // 1000 records = 100 blocks
    val runs = ExternalSort.charge(f, 1000, memBytes = 25 * 1000) // 4 runs
    assert(runs == 4)
    // partition pass: read 100 + write 100; merge pass: read 100 + write 100
    assert(d.blocksRead == 200 && d.blocksWritten == 200)
  }
  test("external sort with exactly one spilled run skips the merge pass") {
    val d = freshDisk
    val f = d.file("a", 100)
    // 1000 records, memory for exactly 1000 -> fits, no I/O
    assert(ExternalSort.charge(f, 1000, memBytes = 100 * 1000) == 1)
    assert(d.blocksRead == 0)
  }
}
