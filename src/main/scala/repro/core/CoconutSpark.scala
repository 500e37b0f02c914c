package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.index.{MinDist, SeriesIndex}
import repro.series.{InvSAX, SaxParams, Series}

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
    /** Each leaf's first key, in directory order: what
      * [[repro.index.SeriesIndex.leafWindow]] searches.
      */
    val firstKeys: Array[Long] = bounds.map(_.minInv)
  }

  /** Add the `invsax` column, the only summary that queries, [[load]] and
    * the bulk load read, to a `(id, series)` DataFrame.
    */
  def summarize(df: DataFrame, p: SaxParams): DataFrame = {
    val invSax = udf((s: Seq[Double]) => InvSAX.ofSeries(s.toArray, p))
    df.withColumn("invsax", invSax(col("series")))
  }

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

  /** Load an index from disk, rebuilding the leaf directory with one
    * aggregation job: a `groupBy("leaf")` that takes the minimum and
    * maximum `invsax` and the row count of each leaf over every row.
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
    val window = SeriesIndex.leafWindow(index.firstKeys, InvSAX.ofSeries(q, index.p), radius)
    val leafIds = window.map(index.bounds(_).leaf)
    nearest(spark.read.parquet(index.path).where(col("leaf").isin(leafIds: _*)), q).head
  }

  /** Exact search: CoconutTreeSIMS (Algorithm 5) as a dataflow — MINDIST
    * over the summarization column prunes the dataset, the survivors'
    * raw series are fetched and the true minimum returned. The approximate
    * answer seeds the pruning bound.
    */
  def exactSearch(spark: SparkSession, index: Index, q: Array[Double],
                  radius: Int = 1): (Long, Double) = {
    val (approx, rows) = survivors(spark, index, q, radius)
    // The approximate answer may already be optimal (no candidate strictly
    // under the bound beats it) — return whichever is closer.
    nearest(rows, q).find(_._2 <= approx._2).getOrElse(approx)
  }

  /** Count of records whose MINDIST is below the approximate bound — the
    * paper's "visited records" metric (Fig. 9f), as a dataflow.
    */
  def visitedRecords(spark: SparkSession, index: Index, q: Array[Double],
                     radius: Int = 1): Long =
    survivors(spark, index, q, radius)._2.count()

  /** The approximate answer, and the index rows whose MINDIST lower bound
    * is below its distance: the records SIMS must fetch.
    */
  private def survivors(spark: SparkSession, index: Index, q: Array[Double],
                        radius: Int): ((Long, Double), DataFrame) = {
    val approx = approxSearch(spark, index, q, radius)
    val p = index.p
    val kernel = new MinDist(Series.paa(q, p.w), p)
    val bound = udf((inv: Long) => kernel.lowerBound(InvSAX.fromLong(inv, p)))
    (approx, spark.read.parquet(index.path).where(bound(col("invsax")) < lit(approx._2)))
  }

  /** The row of `rows` nearest to `q` as `(id, distance)`; empty when
    * `rows` is.
    */
  private def nearest(rows: DataFrame, q: Array[Double]): Array[(Long, Double)] = {
    val spark = rows.sparkSession
    import spark.implicits._
    val dist = udf((s: Seq[Double]) => Series.euclidean(s.toArray, q))
    rows.select(col("id"), dist(col("series")) as "dist")
      .orderBy(col("dist"))
      .as[(Long, Double)]
      .take(1)
  }
}
