package repro.core

/** Test helper: explicit `rows × cols` weight matrices into and out of a
  * [[Matching.Scratch]], laid out as [[Matching.weights]] writes them
  * (row-major, zero-padded to n×n).
  */
object ExplicitMatrix {

  /** Writes `w` (rectangular; no rows means the empty matrix) into `s`. */
  def load(w: Array[Array[Double]], s: Matching.Scratch = new Matching.Scratch): Matching.Scratch = {
    val rows = w.length
    val cols = if (rows == 0) 0 else w(0).length
    s.reset(rows, cols)
    for (i <- 0 until rows; j <- 0 until cols) s.w(i * s.n + j) = w(i)(j)
    s
  }

  /** The `rows × cols` matrix last written into `s`. */
  def read(s: Matching.Scratch): Seq[Seq[Double]] =
    Seq.tabulate(s.rows, s.cols)((i, j) => s.w(i * s.n + j))
}
