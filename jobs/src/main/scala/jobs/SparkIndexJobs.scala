package jobs

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.core.CoconutSpark
import repro.series.{SaxParams, SeriesGen}

/** Build the distributed Coconut-Tree index (DataFrame z-order sort +
  * range partition + columnar leaves) over a generated random-walk
  * dataset.
  *
  * Args: [n] [len] [numLeaves] [path]  (defaults: 100000 64 64 /tmp/coconut-index)
  */
object BuildIndexJob {
  def main(args: Array[String]): Unit = {
    val n = if (args.length > 0) args(0).toLong else 100000L
    val len = if (args.length > 1) args(1).toInt else 64
    val numLeaves = if (args.length > 2) args(2).toInt else 64
    val path = if (args.length > 3) args(3) else "/tmp/coconut-index"
    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("coconut-build").getOrCreate()
    val p = SaxParams(len, 8, 8)
    val t0 = System.nanoTime()
    val index = CoconutSpark.bulkLoad(SynthData.dataSeries(spark, n, len), p, numLeaves, path)
    val secs = (System.nanoTime() - t0) / 1e9
    println(f"built ${index.bounds.map(_.count).sum} series into ${index.bounds.length} leaves " +
            f"at $path in $secs%.1f s")
    index.bounds.foreach(b => println(f"  leaf ${b.leaf}%3d  [${b.minInv}%20d, ${b.maxInv}%20d]  ${b.count}%6d rows"))
    spark.stop()
  }
}

/** Run approximate + exact queries against a built index.
  *
  * Args: [path] [len] [nQueries] [radius]  (defaults: /tmp/coconut-index 64 10 1)
  */
object QueryIndexJob {
  def main(args: Array[String]): Unit = {
    val path = if (args.length > 0) args(0) else "/tmp/coconut-index"
    val len = if (args.length > 1) args(1).toInt else 64
    val nQueries = if (args.length > 2) args(2).toInt else 10
    val radius = if (args.length > 3) args(3).toInt else 1
    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("coconut-query").getOrCreate()
    val p = SaxParams(len, 8, 8)
    val index = CoconutSpark.load(spark, path, p)
    val queries = SeriesGen.queries("walk", nQueries, len, seed = 42)
    queries.zipWithIndex.foreach { case (q, i) =>
      val ta = System.nanoTime()
      val (aid, adist) = CoconutSpark.approxSearch(spark, index, q, radius)
      val tb = System.nanoTime()
      val (eid, edist) = CoconutSpark.exactSearch(spark, index, q, radius)
      val tc = System.nanoTime()
      println(f"q$i%2d  approx id=$aid%6d d=$adist%8.4f (${(tb - ta) / 1e6}%6.0f ms)   " +
              f"exact id=$eid%6d d=$edist%8.4f (${(tc - tb) / 1e6}%6.0f ms)")
    }
    spark.stop()
  }
}
