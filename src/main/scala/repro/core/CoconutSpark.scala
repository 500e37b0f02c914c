package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._

import repro.index.SeriesIndex
import repro.series.{InvSAX, SAX, SaxParams, Series}

/** Coconut-Tree as a distributed Spark dataflow — the paper's bulk-loading
  * pipeline (Algorithm 3) expressed in the DataFrame API:
  *
  *  1. '''summarize''': add the `invsax` column (sign-flipped Long z-order
  *     key — see [[repro.series.InvSAX.toLong]]) via a UDF;
  *  2. '''bulk load''': `repartitionByRange(numLeaves, $"invsax")` — a
  *     Catalyst `RangePartitioning` over a sampled key distribution, i.e.
  *     exactly the median-based splitting of §4.3 — followed by
  *     `sortWithinPartitions` (the distributed external sort) and a
  *     columnar (Parquet) write partitioned by leaf id;
  *  3. the per-leaf `[min,max]` invSAX boundaries are collected to the
  *     driver — they are the internal B+-tree levels, which the paper also
  *     keeps in memory.
  *
  * Approximate search prunes to the target leaf directory (±radius);
  * exact search is CoconutTreeSIMS: a DataFrame scan of the summarization
  * column computing MINDIST, then raw-series fetch of the unpruned rows.
  */
object CoconutSpark {

  /** Per-leaf metadata collected at build time (the index directory). */
  final case class LeafBound(leaf: Int, minInv: Long, maxInv: Long, count: Long)

  /** A loaded index: leaf directory + paths. */
  final case class Index(path: String, p: SaxParams, bounds: Array[LeafBound]) {
    /** Leaf whose range contains `inv` (rightmost leaf with minInv ≤ inv). */
    def leafOf(inv: Long): Int = {
      val keys = bounds.map(_.minInv)
      var lo = 0; var hi = keys.length - 1; var ans = 0
      while (lo <= hi) {
        val mid = (lo + hi) >>> 1
        if (keys(mid) <= inv) { ans = mid; lo = mid + 1 } else hi = mid - 1
      }
      ans
    }
  }

  /** UDF computing the sign-flipped Long invSAX of a series. */
  def invSaxUdf(p: SaxParams): UserDefinedFunction =
    udf((s: Seq[Double]) => InvSAX.ofSeries(s.toArray, p))

  /** Register the summarization UDF on the session as `invsax`, so it is
    * usable from Spark SQL as well.
    */
  def registerUdfs(spark: SparkSession, p: SaxParams): Unit =
    spark.udf.register("invsax", invSaxUdf(p))

  /** Add the `invsax` column, the only summary that queries, [[load]] and
    * the bulk load read, to a `(id, series)` DataFrame.
    */
  def summarize(df: DataFrame, p: SaxParams): DataFrame =
    df.withColumn("invsax", invSaxUdf(p)(col("series")))

  /** Bulk-load the index: z-order sort + range partition into `numLeaves`
    * leaves, written as a Parquet dataset partitioned by `leaf`. Returns
    * the loaded [[Index]] with its driver-side leaf directory.
    */
  def bulkLoad(df: DataFrame, p: SaxParams, numLeaves: Int, path: String): Index = {
    val spark = df.sparkSession
    import spark.implicits._
    val summarized = summarize(df, p)
    val sorted = summarized
      .repartitionByRange(numLeaves, col("invsax"))
      .sortWithinPartitions(col("invsax"))
      .withColumn("leaf", spark_partition_id())
    sorted.write.mode("overwrite").partitionBy("leaf").parquet(path)
    load(spark, path, p)
  }

  /** Load an index from disk, rebuilding the leaf directory from the
    * columnar files' own statistics.
    */
  def load(spark: SparkSession, path: String, p: SaxParams): Index = {
    import spark.implicits._
    val bounds = spark.read.parquet(path)
      .groupBy(col("leaf"))
      .agg(min("invsax") as "minInv", max("invsax") as "maxInv", count(lit(1)) as "count")
      .as[(Int, Long, Long, Long)]
      .collect()
      .sortBy(_._2)
      .map { case (leaf, lo, hi, c) => LeafBound(leaf, lo, hi, c) }
    Index(path, p, bounds)
  }

  /** Approximate search (Algorithm 4): read only the target leaf directory
    * (± `radius` neighbors in z-order, clamped to the directory) and return
    * the closest raw series in it. Directory partition pruning keeps the
    * scan to those leaves.
    */
  def approxSearch(spark: SparkSession, index: Index, q: Array[Double],
                   radius: Int = 0): (Long, Double) = {
    SeriesIndex.checkQuery(q, index.p.n)
    require(radius >= 0, s"radius must be non-negative, got $radius")
    import spark.implicits._
    val qz = q
    val qInv = InvSAX.ofSeries(qz, index.p)
    val c = index.leafOf(qInv)
    val lo = math.max(0, c - radius); val hi = math.min(index.bounds.length - 1L, c.toLong + radius).toInt
    val leafIds = (lo to hi).map(index.bounds(_).leaf)
    val distUdf = udf((s: Seq[Double]) => Series.euclidean(s.toArray, qz))
    spark.read.parquet(index.path)
      .where(col("leaf").isin(leafIds: _*))
      .select(col("id"), distUdf(col("series")) as "dist")
      .orderBy(col("dist"))
      .as[(Long, Double)]
      .head()
  }

  /** Exact search: CoconutTreeSIMS (Algorithm 5) as a dataflow — MINDIST
    * over the summarization column prunes the dataset, the survivors'
    * raw series are fetched and the true minimum returned. The approximate
    * answer seeds the pruning bound.
    */
  def exactSearch(spark: SparkSession, index: Index, q: Array[Double],
                  radius: Int = 1): (Long, Double) = {
    SeriesIndex.checkQuery(q, index.p.n)
    import spark.implicits._
    val qz = q
    val approx = approxSearch(spark, index, qz, radius)
    val bsf = approx._2
    val p = index.p
    val qPaa = Series.paa(qz, p.w)
    val mindistUdf = udf((inv: Long) => SAX.minDistPaaToSax(qPaa, InvSAX.fromLong(inv, p), p))
    val distUdf = udf((s: Seq[Double]) => Series.euclidean(s.toArray, qz))
    val best = spark.read.parquet(index.path)
      .where(mindistUdf(col("invsax")) < lit(bsf))
      .select(col("id"), distUdf(col("series")) as "dist")
      .orderBy(col("dist"))
      .as[(Long, Double)]
      .take(1)
    // The approximate answer may already be optimal (no candidate strictly
    // under the bound beats it) — return whichever is closer.
    if (best.nonEmpty && best.head._2 <= approx._2) best.head else approx
  }

  /** Count of records whose MINDIST is below the approximate bound — the
    * paper's "visited records" metric (Fig. 9f), as a dataflow.
    */
  def visitedRecords(spark: SparkSession, index: Index, q: Array[Double],
                     radius: Int = 1): Long = {
    SeriesIndex.checkQuery(q, index.p.n)
    val (_, bsf) = approxSearch(spark, index, q, radius)
    val p = index.p
    val qPaa = Series.paa(q, p.w)
    val mindistUdf = udf((inv: Long) => SAX.minDistPaaToSax(qPaa, InvSAX.fromLong(inv, p), p))
    spark.read.parquet(index.path).where(mindistUdf(col("invsax")) < lit(bsf)).count()
  }
}
