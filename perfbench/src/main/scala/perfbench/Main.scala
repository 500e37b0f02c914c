package perfbench

import java.nio.file.{Files, Path, Paths}

/** Entry point: `perfbench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1> --out <dir> [--commit <id>]`.
  *
  * Prints a table of every metric with its unit, then, as the last line,
  * one JSON object with `correct`, `attempted`, `failed` and `metrics`
  * (end-to-end metrics untraced, per-layer metrics traced). The full record,
  * with JVM flags, nproc, commit and seed, goes to `<out>`; a traced run
  * also writes its spans there.
  */
object Main {
  val Workloads: Map[String, Run => Unit] =
    Map("bulk" -> (Bulk.run _), "query" -> (Query.run _), "update" -> (Update.run _))

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, fail(s"missing --$k"))
    val name = need("workload")
    val workload = Workloads.getOrElse(name, fail(s"unknown workload '$name' (one of ${Workloads.keys.mkString(", ")})"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => fail(s"--trace must be 0 or 1, got $t")
    }
    val run = new Run(name, need("seed").toLong, need("seconds").toDouble, trace)
    val out = Paths.get(need("out"))
    run.info("workload") = name
    run.info("seed") = run.seed.toString
    run.info("seconds") = run.seconds.toString
    run.info("trace") = if (trace) "1" else "0"
    run.info("commit") = opts.getOrElse("commit", "unknown")
    run.info("nproc") = Runtime.getRuntime.availableProcessors.toString
    run.info("java") = System.getProperty("java.vm.version")
    run.info("jvm_flags") = Jvm.flags.mkString(" ")
    run.info("gc") = Jvm.gcNames.mkString(", ")

    val t0 = System.nanoTime()
    workload(run)
    run.info("startup_to_end_s") = f"${Jvm.uptimeS}%.3f"
    run.info("workload_s") = f"${(System.nanoTime() - t0) / 1e9}%.3f"

    val metrics = if (trace) run.perLayer else run.endToEnd
    val bad = metrics.collect { case (k, m) if m.value.isNaN || m.value.isInfinite => k }
    if (bad.nonEmpty) fail(s"metrics without a value: ${bad.mkString(", ")}")

    Files.createDirectories(out)
    val stem = s"$name-seed${run.seed}-trace${if (trace) 1 else 0}"
    Files.writeString(out.resolve(s"$stem.json"), recordJson(run) + "\n")
    if (trace) run.tracer.writeJsonl(out.resolve(s"$stem-spans.jsonl"))

    printTable("workload metrics (record)", run.record)
    printTable(if (trace) "per-layer metrics" else "end-to-end metrics", metrics)
    run.info.foreach { case (k, v) => println(f"  $k%-28s $v") }
    println(s"""{"correct": ${run.failed == 0}, "attempted": ${run.attempted}, "failed": ${run.failed}, """ +
            s""""metrics": ${metricsJson(metrics)}}""")
  }

  private def fail(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    sys.exit(2)
  }

  private def printTable(title: String, ms: collection.Map[String, Metric]): Unit = {
    println(s"$title:")
    ms.foreach { case (k, m) => println(f"  $k%-34s ${m.value}%18.6f ${m.unit}") }
  }

  private def str(s: String): String =
    "\"" + s.flatMap { case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => " "; case c => c.toString } + "\""

  private def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString

  def metricsJson(ms: collection.Map[String, Metric]): String =
    ms.map { case (k, m) => s"""${str(k)}: {"value": ${num(m.value)}, "unit": ${str(m.unit)}}""" }
      .mkString("{", ", ", "}")

  private def recordJson(run: Run): String =
    Seq(
      s""""info": ${run.info.map { case (k, v) => s"${str(k)}: ${str(v)}" }.mkString("{", ", ", "}")}""",
      s""""attempted": ${run.attempted}""",
      s""""failed": ${run.failed}""",
      s""""record": ${metricsJson(run.record)}""",
      s""""end_to_end": ${metricsJson(run.endToEnd)}""",
      s""""per_layer": ${metricsJson(run.perLayer)}""",
    ).mkString("{", ", ", "}")
}
