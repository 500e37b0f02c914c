package jobs

import repro.bench.Experiments

/** Spark-submit / sbt-run entrypoint that prints the regenerated tables of
  * the paper figures named by its arguments (`8a` … `10c`, see
  * [[Experiments.figures]]), or of every figure for `all` (DESIGN.md §4).
  * The `bench/` suites check the same tables' shapes.
  *
  * Usage: `sbt "jobs/runMain jobs.Figures 8a 9cdef"` or
  * `sbt "jobs/runMain jobs.Figures all"` (or spark-submit the assembly with
  * the same main class and arguments).
  */
object Figures {
  def main(args: Array[String]): Unit = {
    val names = Experiments.figures.map(_.name)
    require(args.nonEmpty, s"usage: jobs.Figures <figure>... | all (figures: ${names.mkString(", ")})")
    val figs = args.toSeq.flatMap(a => if (a == "all") Experiments.figures else Seq(Experiments.figure(a)))
    print(Experiments.render(figs))
  }
}
