package bench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite

/** Every table the `jobs` entrypoints print (Fig 8a–8f, 9a, 9b, 9c–9f,
  * 10a–10c), in their order and exactly as they print it, compared byte for
  * byte with `figures.golden.txt`. Modelled I/O is deterministic, so any
  * difference is a behaviour change. On a mismatch the new render is written
  * to `target/figures.rendered.txt`; a change that moves a table on purpose
  * copies it over the golden file and says why.
  */
class FiguresGolden extends AnyFunSuite {
  private def render(): String = {
    import Figures._
    val (space, fill) = fig8c
    val (c, d, e, f) = fig9cdef
    Seq(fig8a, fig8b, space, fill, fig8d, fig8e, fig8f, fig9a, fig9b, c, d, e, f, fig10a, fig10b, fig10c)
      .map(_.render + "\n").mkString
  }

  test("every figure table matches the golden render") {
    val in = getClass.getResourceAsStream("/figures.golden.txt")
    assert(in != null, "figures.golden.txt is missing from the test resources")
    val want = try new String(in.readAllBytes(), UTF_8) finally in.close()
    val got = render()
    if (got != want) {
      val out = Paths.get("target", "figures.rendered.txt").toAbsolutePath
      Files.createDirectories(out.getParent)
      Files.write(out, got.getBytes(UTF_8))
      val w = want.split("\n", -1); val g = got.split("\n", -1)
      val i = (0 until math.max(w.length, g.length)).find(i => w.lift(i) != g.lift(i)).get
      fail(s"line ${i + 1} differs (whole render in $out)\n" +
           s"  golden:   ${w.lift(i).getOrElse("<end of file>")}\n" +
           s"  rendered: ${g.lift(i).getOrElse("<end of file>")}")
    }
  }
}
