package repro

/** The Spark data-series generator agrees with the local one. */
class SynthDataSpec extends SparkSpec {

  test("dataSeries matches the local generator for all kinds") {
    for (kind <- Seq("walk", "seismic", "astronomy")) {
      val rows = SynthData.dataSeries(spark, 5, 32, kind, seed = 3).orderBy("id").collect()
      rows.foreach { r =>
        val want = kind match {
          case "walk"      => series.SeriesGen.randomWalk(r.getLong(0), 32, 3)
          case "seismic"   => series.SeriesGen.seismicLike(r.getLong(0), 32, 3)
          case "astronomy" => series.SeriesGen.astronomyLike(r.getLong(0), 32, 3)
        }
        assert(r.getSeq[Double](1).toArray.sameElements(want))
      }
    }
  }

  test("dataSeries rejects unknown kinds when called, before any plan runs") {
    val e = intercept[IllegalArgumentException](SynthData.dataSeries(spark, 2, 16, "nope"))
    assert(e.getMessage == "unknown dataset kind: nope")
  }
}
