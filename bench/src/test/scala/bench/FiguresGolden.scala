package bench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.Experiments

/** Every table `jobs.Figures all` prints (Fig 8a–8f, 9a, 9b, 9c–9f,
  * 10a–10c), in [[Experiments.figures]] order and exactly as it prints
  * them, compared byte for byte with `figures.golden.txt`. Modelled I/O is
  * deterministic, so any difference is a behaviour change. On a mismatch
  * the new render is written to `target/figures.rendered.txt`; a change
  * that moves a table on purpose copies it over the golden file and says
  * why.
  */
class FiguresGolden extends AnyFunSuite {
  test("figure names are unique, and an unknown name is rejected with the known ones") {
    val names = Experiments.figures.map(_.name)
    assert(names.distinct == names)
    val e = intercept[IllegalArgumentException](Experiments.figure("8z"))
    assert(e.getMessage.startsWith("unknown figure: 8z"))
    names.foreach(n => assert(e.getMessage.contains(n), n))
  }

  test("every figure table matches the golden render") {
    val in = getClass.getResourceAsStream("/figures.golden.txt")
    assert(in != null, "figures.golden.txt is missing from the test resources")
    val want = try new String(in.readAllBytes(), UTF_8) finally in.close()
    val got = Experiments.render(Experiments.figures)
    if (got != want) {
      val out = Paths.get("target", "figures.rendered.txt").toAbsolutePath
      Files.createDirectories(out.getParent)
      Files.write(out, got.getBytes(UTF_8))
      val w = want.split("\n", -1); val g = got.split("\n", -1)
      val i = (0 until math.max(w.length, g.length)).find(i => w.lift(i) != g.lift(i)).get
      // The golden and rendered text agree before line i, so the figure
      // that renders line i is the first one whose tables moved.
      val ends = Experiments.figures.map(f => Experiments.render(Seq(f)).count(_ == '\n')).scanLeft(0)(_ + _).tail
      val moved = Experiments.figures.lift(ends.indexWhere(i < _)).fold("none (the golden file is longer)")(_.name)
      fail(s"figure $moved differs at line ${i + 1} (whole render in $out)\n" +
           s"  golden:   ${w.lift(i).getOrElse("<end of file>")}\n" +
           s"  rendered: ${g.lift(i).getOrElse("<end of file>")}")
    }
  }
}
