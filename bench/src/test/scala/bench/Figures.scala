package bench

import repro.bench.Experiments

/** Every figure table of the paper's evaluation, computed once per test run
  * and shared by the shape suites and [[FiguresGolden]].
  */
object Figures {
  lazy val fig8a = Experiments.fig8a()
  lazy val fig8b = Experiments.fig8b()
  lazy val fig8c = Experiments.fig8c()
  lazy val fig8d = Experiments.fig8de(materialized = true)
  lazy val fig8e = Experiments.fig8de(materialized = false)
  lazy val fig8f = Experiments.fig8f()
  lazy val fig9a = Experiments.fig9a()
  lazy val fig9b = Experiments.fig9b()
  lazy val fig9cdef = Experiments.fig9cdef()
  lazy val fig10a = Experiments.fig10a()
  lazy val fig10b = Experiments.fig10bc("astronomy")
  lazy val fig10c = Experiments.fig10bc("seismic")
}
