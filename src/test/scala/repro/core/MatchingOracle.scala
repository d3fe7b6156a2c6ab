package repro.core

/** Test-only oracle: the matrix builder and Kuhn–Munkres kernel as they were
  * written on `Array[Array[Double]]` with a bounds-checked `weight(i, j)`
  * closure, kept verbatim (only moved here) so `MatchingSpec` can check that
  * the flat padded [[Matching]] kernel on a reused [[Matching.Scratch]]
  * returns `==` outcomes: the same label sums, the same early-termination
  * decisions and bit-identical scores. Its builder reads string-keyed edge
  * lists, as the engines did before the [[Edges]] table; `directEdges` gives
  * such lists for explicit token arrays.
  */
object MatchingOracle {

  private val Eps = 1e-12
  private val PruneEps = Matching.PruneEps

  def weights(qCount: Int, cTokens: Array[String], edgesOf: String => Array[(Int, Double)],
              reduced: Boolean): Array[Array[Double]] = {
    var cols = cTokens
    var rowOf: Array[Int] = null // null: row = query position
    var nRows = qCount
    if (reduced) {
      val hasEdge = new Array[Boolean](qCount)
      cols = cTokens.filter { t =>
        val es = edgesOf(t)
        es.foreach(e => hasEdge(e._1) = true)
        es.nonEmpty
      }
      rowOf = new Array[Int](qCount)
      nRows = 0
      var qi = 0
      while (qi < qCount) { if (hasEdge(qi)) { rowOf(qi) = nRows; nRows += 1 }; qi += 1 }
    }
    val w = Array.ofDim[Double](nRows, cols.length)
    var any = false
    var c = 0
    while (c < cols.length) {
      val es = edgesOf(cols(c))
      var e = 0
      while (e < es.length) {
        val r = if (rowOf eq null) es(e)._1 else rowOf(es(e)._1)
        w(r)(c) = math.max(w(r)(c), es(e)._2)
        any = true
        e += 1
      }
      c += 1
    }
    if (any) w else NoWeights
  }

  private val NoWeights = Array.empty[Array[Double]]

  /** Direct edge lists between explicit token arrays: each candidate token's
    * (qIdx, sim) pairs with sim ≥ α, in query order.
    */
  def directEdges(qTokens: Array[String], simFn: TokenSimilarity, alpha: Double)
      : String => Array[(Int, Double)] = c =>
    qTokens.indices.map(qi => (qi, simFn.simAlpha(qTokens(qi), c, alpha))).filter(_._2 > 0.0).toArray

  def hungarianMax(w: Array[Array[Double]], theta: Double = Double.NegativeInfinity)
      : HungarianOutcome = {
    val rows = w.length
    val cols = if (rows == 0) 0 else w(0).length
    if (rows == 0 || cols == 0) {
      return if (0.0 < theta - PruneEps) EarlyTerminated else Completed(0.0)
    }
    val n = math.max(rows, cols)
    @inline def weight(i: Int, j: Int): Double = if (i < rows && j < cols) w(i)(j) else 0.0

    val lx = Array.tabulate(n) { i =>
      var m = 0.0; var j = 0
      while (j < cols) { if (weight(i, j) > m) m = weight(i, j); j += 1 }
      m
    }
    val ly = new Array[Double](n)
    var labelSum = { var s = 0.0; var i = 0; while (i < n) { s += lx(i); i += 1 }; s }
    if (labelSum < theta - PruneEps) return EarlyTerminated

    val matchL = Array.fill(n)(-1)
    val matchR = Array.fill(n)(-1)
    val slack = new Array[Double](n)
    val way = new Array[Int](n)
    val inS = new Array[Boolean](n)
    val inT = new Array[Boolean](n)

    var root = 0
    while (root < n) {
      java.util.Arrays.fill(inS, false)
      java.util.Arrays.fill(inT, false)
      var j = 0
      while (j < n) { slack(j) = lx(root) + ly(j) - weight(root, j); way(j) = root; j += 1 }
      inS(root) = true
      var endCol = -1
      while (endCol == -1) {
        var delta = Double.MaxValue; var jmin = -1
        j = 0
        while (j < n) { if (!inT(j) && slack(j) < delta) { delta = slack(j); jmin = j }; j += 1 }
        if (delta > Eps) {
          var i = 0
          while (i < n) { if (inS(i)) lx(i) -= delta; i += 1 }
          j = 0
          while (j < n) { if (inT(j)) ly(j) += delta else slack(j) -= delta; j += 1 }
          // |S| = |T| + 1 in the alternating tree, so the sum shrinks by delta.
          labelSum -= delta
          if (labelSum < theta - PruneEps) return EarlyTerminated
        }
        inT(jmin) = true
        if (matchR(jmin) == -1) endCol = jmin
        else {
          val r = matchR(jmin)
          inS(r) = true
          j = 0
          while (j < n) {
            if (!inT(j)) {
              val s = lx(r) + ly(j) - weight(r, j)
              if (s < slack(j)) { slack(j) = s; way(j) = r }
            }
            j += 1
          }
        }
      }
      var jj = endCol
      while (jj != -1) {
        val r = way(jj)
        val jNext = matchL(r)
        matchL(r) = jj; matchR(jj) = r
        jj = jNext
      }
      root += 1
    }
    var score = 0.0
    var i = 0
    while (i < rows) {
      val j = matchL(i)
      if (j >= 0 && j < cols) score += w(i)(j)
      i += 1
    }
    Completed(score)
  }
}
