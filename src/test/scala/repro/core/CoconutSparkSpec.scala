package repro.core

import java.nio.file.{Files, Path}
import java.util.Comparator

import scala.collection.mutable.ListBuffer
import scala.util.Using

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.BeforeAndAfterAll

import repro.{Oracle, SparkSpec, SynthData}
import repro.index.{BruteForce, MinDist, SeriesIndex}
import repro.series.{InvSAX, SAX, SaxParams, Series, SeriesGen}

/** Tests for the distributed Coconut dataflow: summarize → z-order sort →
  * range partition → columnar leaves, plus the query dataflows. Every
  * query-result check is validated against DuckDB via [[repro.Oracle]].
  */
class CoconutSparkSpec extends SparkSpec with BeforeAndAfterAll {

  private val p = SaxParams(n = 32, w = 4, bits = 4)
  private val n = 300
  private val numLeaves = 8
  private lazy val df = SynthData.dataSeries(spark, n, 32, "walk", seed = 9).cache()
  private lazy val localData = Array.tabulate(n)(i => SeriesGen.randomWalk(i, 32, 9))
  private lazy val queries = SeriesGen.queries("walk", 5, 32, seed = 9)
  private lazy val indexPath = CoconutSpark.bulkLoad(df, p, numLeaves, tempDir("coconut-spark")).path
  private lazy val index = CoconutSpark.load(spark, indexPath, p)

  /** Temporary directories the suite made; deleted, with what they hold, after it. */
  private val tempDirs = ListBuffer.empty[Path]
  private def tempDir(prefix: String): String = {
    val dir = Files.createTempDirectory(prefix)
    tempDirs += dir
    dir.toString
  }
  override def afterAll(): Unit =
    try tempDirs.filter(Files.exists(_)).foreach { dir =>
      Using.resource(Files.walk(dir))(_.sorted(Comparator.reverseOrder[Path]()).forEach(Files.delete(_)))
    } finally super.afterAll()

  /** Exploded (id, pos, v) view of the raw series for SQL-side checks. */
  private def explodedDf: DataFrame = {
    import spark.implicits._
    localData.zipWithIndex.flatMap { case (s, i) =>
      s.zipWithIndex.map { case (v, pos) => (i.toLong, pos, v) }
    }.toSeq.toDF("id", "pos", "v")
  }
  private def queryDf(q: Array[Double]): DataFrame = {
    import spark.implicits._
    q.zipWithIndex.map { case (v, pos) => (pos, v) }.toSeq.toDF("pos", "qv")
  }

  test("Spark generator matches the local generator exactly") {
    val fromSpark = df.orderBy("id").collect().map(_.getSeq[Double](1).toArray)
    fromSpark.zip(localData).foreach { case (a, b) => assert(a.sameElements(b)) }
  }

  test("summarize adds an invsax column consistent with the local path") {
    val rows = CoconutSpark.summarize(df, p).orderBy("id").collect()
    rows.zipWithIndex.take(50).foreach { case (r, i) =>
      assert(r.getAs[Long]("invsax") == InvSAX.ofSeries(localData(i), p))
    }
  }

  test("PAA computed as a Spark aggregation matches DuckDB") {
    val seg = 32 / p.w
    val sparkPaa = explodedDf
      .withColumn("segment", floor(col("pos") / seg))
      .groupBy("id", "segment")
      .agg(round(avg("v"), 3) as "paa")
    Oracle.assertEquivalent(
      sparkPaa,
      s"""SELECT CAST(id AS BIGINT) AS id, CAST(FLOOR(CAST(pos AS INT) / $seg) AS BIGINT) AS segment,
         |       ROUND(AVG(CAST(v AS DOUBLE)), 3) AS paa
         |FROM s GROUP BY 1, 2""".stripMargin,
      "s" -> explodedDf)
  }

  test("Euclidean distances computed via DataFrame ops match DuckDB") {
    val q = queries(0)
    val sparkDist = explodedDf.join(queryDf(q), "pos")
      .groupBy("id")
      .agg(round(sum(pow(col("v") - col("qv"), 2)), 3) as "sqdist")
    Oracle.assertEquivalent(
      sparkDist,
      """SELECT CAST(s.id AS BIGINT) AS id,
        |       ROUND(SUM((CAST(s.v AS DOUBLE) - CAST(q.qv AS DOUBLE))
        |               * (CAST(s.v AS DOUBLE) - CAST(q.qv AS DOUBLE))), 3) AS sqdist
        |FROM s JOIN q ON s.pos = q.pos GROUP BY s.id""".stripMargin,
      "s" -> explodedDf, "q" -> queryDf(q))
  }

  test("bulk load produces the requested number of leaves with all rows") {
    assert(index.bounds.length == numLeaves)
    assert(index.bounds.map(_.count).sum == n)
  }

  test("leaf invsax ranges are sorted and disjoint (median/range splitting)") {
    val b = index.bounds
    b.foreach(lb => assert(lb.minInv <= lb.maxInv))
    b.sliding(2).foreach { w => if (w.length == 2) assert(w(0).maxInv <= w(1).minInv) }
  }

  test("range partitioning balances leaves (every leaf within 3x of ideal)") {
    val ideal = n.toDouble / numLeaves
    index.bounds.foreach { lb =>
      assert(lb.count <= ideal * 3, s"leaf ${lb.leaf} holds ${lb.count} of ideal $ideal")
    }
  }

  test("rows within each leaf parquet directory are z-order sorted") {
    val rows = spark.read.parquet(indexPath)
      .select("leaf", "invsax").collect()
      .groupBy(_.getInt(0))
    rows.foreach { case (_, rs) =>
      val invs = rs.map(_.getLong(1))
      // Files within one leaf may interleave, but the leaf's key range must
      // match its directory bound.
      val lb = index.bounds.find(b => b.minInv <= invs.min && invs.max <= b.maxInv)
      assert(lb.isDefined)
    }
  }

  test("leafOf locates the correct leaf for every indexed key") {
    def leafOf(inv: Long): Int = SeriesIndex.leafWindow(index.firstKeys, inv, 0).start
    index.bounds.foreach { lb =>
      assert(leafOf(lb.minInv) == index.bounds.indexOf(lb) ||
             index.bounds(leafOf(lb.minInv)).minInv == lb.minInv)
      assert(index.bounds(leafOf(lb.maxInv)).minInv <= lb.maxInv)
    }
  }

  test("approximate search finds an indexed series at distance zero") {
    (0 until 5).foreach { i =>
      val (_, dist) = CoconutSpark.approxSearch(spark, index, localData(i), radius = 0)
      assert(dist < 1e-9)
    }
  }

  test("approximate search distance never improves the exact distance") {
    for (q <- queries.take(3)) {
      val (_, da) = CoconutSpark.approxSearch(spark, index, q, radius = 1)
      val (_, de) = CoconutSpark.exactSearch(spark, index, q)
      assert(de <= da + 1e-9)
    }
  }

  test("exact search matches local brute force") {
    for (q <- queries) {
      val (_, dist) = CoconutSpark.exactSearch(spark, index, q)
      assert(math.abs(dist - BruteForce.nn(localData, q).dist) < 1e-9)
    }
  }

  test("exact search nearest neighbor matches DuckDB's brute-force answer") {
    import spark.implicits._
    val q = queries(1)
    val (id, dist) = CoconutSpark.exactSearch(spark, index, q)
    val resultDf = Seq((id, BigDecimal(dist).setScale(3, BigDecimal.RoundingMode.HALF_UP).toDouble))
      .toDF("id", "dist")
    Oracle.assertEquivalent(
      resultDf,
      """SELECT CAST(s.id AS BIGINT) AS id,
        |       ROUND(SQRT(SUM((CAST(s.v AS DOUBLE) - CAST(q.qv AS DOUBLE))
        |                    * (CAST(s.v AS DOUBLE) - CAST(q.qv AS DOUBLE)))), 3) AS dist
        |FROM s JOIN q ON s.pos = q.pos GROUP BY s.id ORDER BY dist LIMIT 1""".stripMargin,
      "s" -> explodedDf, "q" -> queryDf(q))
  }

  test("visitedRecords prunes most of the dataset") {
    val v = CoconutSpark.visitedRecords(spark, index, queries(2), radius = 1)
    assert(v > 0 && v < n)
  }

  test("visitedRecords counts the series whose MINDIST is below the approximate distance") {
    val words = localData.map(SAX.sax(_, p))
    for (q <- queries) {
      val (_, approx) = CoconutSpark.approxSearch(spark, index, q, radius = 1)
      val kernel = new MinDist(Series.paa(q, p.w), p)
      val want = words.count(kernel.lowerBound(_) < approx)
      assert(CoconutSpark.visitedRecords(spark, index, q, radius = 1) == want)
    }
  }

  test("queries of the wrong length or all NaN are rejected before any plan runs") {
    for (q <- Seq(queries(0).take(16), Array.fill(32)(Double.NaN))) {
      intercept[IllegalArgumentException](CoconutSpark.approxSearch(spark, index, q))
      intercept[IllegalArgumentException](CoconutSpark.exactSearch(spark, index, q))
      intercept[IllegalArgumentException](CoconutSpark.visitedRecords(spark, index, q))
    }
  }

  test("a negative radius is rejected before any plan runs; Int.MaxValue reads every leaf") {
    // No Parquet dataset at this path: a search that built a plan would
    // fail on it instead of on the radius.
    val unread = index.copy(path = indexPath + "-absent")
    for (search <- Seq[Array[Double] => Any](
           CoconutSpark.approxSearch(spark, unread, _, radius = -1),
           CoconutSpark.exactSearch(spark, unread, _, radius = -1),
           CoconutSpark.visitedRecords(spark, unread, _, radius = -1))) {
      val e = intercept[IllegalArgumentException](search(queries(0)))
      assert(e.getMessage.contains("radius must be non-negative"))
    }
    for (q <- queries.take(2)) {
      val (_, dist) = CoconutSpark.approxSearch(spark, index, q, radius = Int.MaxValue)
      assert(math.abs(dist - BruteForce.nn(localData, q).dist) < 1e-9)
    }
  }

  test("bulk load rejects a NaN, infinite or wrong-length series with the summarize kernel's message") {
    import spark.implicits._
    val good = localData.take(20).map(_.toSeq)
    for ((bad, msg) <- Seq(
           (good(3).updated(5, Double.NaN), "value 5 is NaN; indexed values must be finite"),
           (good(3).updated(0, Double.NegativeInfinity), "value 0 is -Infinity; indexed values must be finite"),
           (good(3).take(16), "expected a series of 32 values, got 16"))) {
      val rows = good.updated(7, bad).zipWithIndex.map { case (s, i) => (i.toLong, s) }.toSeq.toDF("id", "series")
      val e = intercept[IllegalArgumentException](CoconutSpark.bulkLoad(rows, p, 2, tempDir("coconut-spark-bad")))
      assert(e.getMessage == msg)
    }
  }

  test("index reload from disk reproduces identical bounds") {
    val reloaded = CoconutSpark.load(spark, indexPath, p)
    assert(reloaded.bounds.map(b => (b.minInv, b.maxInv, b.count)).toSeq ==
           index.bounds.map(b => (b.minInv, b.maxInv, b.count)).toSeq)
  }
}
