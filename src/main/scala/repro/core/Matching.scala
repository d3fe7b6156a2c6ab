package repro.core

import scala.collection.mutable

/** Outcome of an exact matching computation. */
sealed trait HungarianOutcome
/** The matching ran to completion; `score` is the exact semantic overlap. */
final case class Completed(score: Double) extends HungarianOutcome
/** The label-sum upper bound fell below the pruning threshold (Lemma 8);
  * the true score is strictly below the threshold supplied by the caller.
  */
case object EarlyTerminated extends HungarianOutcome

/** Bipartite-matching kernel used by all engines.
  *
  * The semantic overlap `SO(Q, C)` (Def. 1) is the score of a maximum-weight
  * optional one-to-one matching in the bipartite graph whose edges are
  * `sim_α(q, c) > 0`. With non-negative weights, the optional matching equals
  * the maximum-weight perfect matching on the zero-padded square matrix, so
  * the classic Kuhn–Munkres algorithm applies.
  */
object Matching {

  private val Eps = 1e-12

  /** Slack applied to every pruning comparison: a candidate is pruned only if
    * it is below the threshold by more than this. Floating-point sums (label
    * sums, greedy scores, bucket sums) drift by ~1e-13 per op; without slack
    * a set whose SO exactly equals θ_lb (e.g. the k-th set itself, whose
    * greedy LB is often tight) can be pruned spuriously.
    */
  val PruneEps = 1e-9

  /** Weight matrix of one (query, candidate) pair, from per-token edge lists.
    *
    * Full (`reduced = false`) is the paper's matrix construction (§VIII-A3):
    * ALL query tokens × ALL candidate tokens, zero where no α-edge, exactly
    * like the hungarian-algorithm-cpp implementation the paper uses — so one
    * verification costs O(max(|Q|,|C|)³) however sparse the graph is. This
    * cost model is what makes the unfiltered baseline explode and the filter
    * stack pay off. Reduced (`KoiosParams.reducedGraphs`) keeps only the
    * query positions and candidate tokens with ≥1 α-edge, in their original
    * order — an optimization beyond the paper with identical scores. Either
    * way a candidate without any α-edge gives the empty matrix.
    *
    * @param qCount  |Q|; rows are query positions
    * @param cTokens candidate tokens; columns
    * @param edgesOf token → (qIdx, sim) pairs with sim ≥ α (e.g. the stream's
    *                similarity cache); tokens without entry have no edges
    */
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

  /** Direct edge lists between explicit token arrays (reference path for
    * tests and the brute-force reference).
    */
  def directEdges(qTokens: Array[String], simFn: TokenSimilarity, alpha: Double)
      : String => Array[(Int, Double)] = { (c: String) =>
    val buf = new mutable.ArrayBuffer[(Int, Double)]()
    var qi = 0
    while (qi < qTokens.length) {
      val s = simFn.simAlpha(qTokens(qi), c, alpha)
      if (s > 0.0) buf += ((qi, s))
      qi += 1
    }
    buf.toArray
  }

  /** Maximum-weight bipartite matching via Kuhn–Munkres with node labels and
    * slack arrays, O(n³). The running node-label sum `Σ lx + Σ ly` is an
    * anytime upper bound on the optimal matching score (Kuhn–Munkres
    * theorem); when it drops below `theta` the computation aborts with
    * [[EarlyTerminated]] — the EM-Early-Terminated filter of Lemma 8.
    *
    * @param w     rows × cols non-negative weights (rectangular allowed)
    * @param theta early-termination threshold; `Double.NegativeInfinity`
    *              disables the filter
    */
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

  /** The exact matching score of `w`: [[hungarianMax]] without a threshold. */
  def score(w: Array[Array[Double]]): Double = hungarianMax(w) match {
    case Completed(s)    => s
    case EarlyTerminated => throw new IllegalStateException("unreachable: no threshold")
  }

  /** Reference SO(Q, C) computed directly from the similarity function —
    * used by tests and the brute-force reference.
    */
  def semanticOverlapDirect(qTokens: Array[String], cTokens: Array[String],
                            simFn: TokenSimilarity, alpha: Double): Double =
    score(weights(qTokens.length, cTokens, directEdges(qTokens, simFn, alpha), reduced = true))
}
