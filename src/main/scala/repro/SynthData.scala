package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.series.SeriesGen

/** Synthetic data-series input for the Spark dataflow. */
object SynthData {

  /** Data-series dataset for the Coconut reproduction: `(id, series)` rows
    * where `series` is a z-normalized random walk (or the seismic-/
    * astronomy-like variants of [[repro.series.SeriesGen]]). Deterministic
    * in `(kind, len, seed, id)`, so the Spark path and the local cost-model
    * path see byte-identical data.
    */
  def dataSeries(spark: SparkSession, n: Long, len: Int,
                 kind: String = "walk", seed: Long = 42L): DataFrame = {
    import spark.implicits._
    val gen = SeriesGen.generator(kind)
    val genUdf = udf((id: Long) => gen(id, len, seed))
    spark.range(n).select($"id", genUdf($"id") as "series")
  }
}
