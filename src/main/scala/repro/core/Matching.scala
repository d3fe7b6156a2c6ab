package repro.core

/** Outcome of an exact matching computation. */
sealed trait HungarianOutcome
/** The matching ran to completion; `score` is the exact semantic overlap. */
final case class Completed(score: Double) extends HungarianOutcome
/** The label-sum upper bound fell below the pruning threshold (Lemma 8);
  * the true score is strictly below the threshold supplied by the caller.
  */
case object EarlyTerminated extends HungarianOutcome
/** The deadline passed before an augmentation root; nothing is known about
  * the score. Neither a completed matching nor an early termination.
  */
case object Interrupted extends HungarianOutcome

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

  /** Working memory of the kernel: one weight matrix at a time, row-major
    * and zero-padded to n×n with n = max(rows, cols), plus the kernel's
    * label, slack, way, match and tree arrays and the builder's row map. The
    * arrays are reused, sized for a capacity that grows to the larger of n
    * and 1.5× its last value: below 1.5× the largest n solved, so the matrix
    * peaks at 2.25 × 8·n² bytes and its regrowths allocate at most 1.8× that.
    * [[weights]] zero-fills only the n² prefix of the matrix (stride n). Not
    * thread-safe: the engines use one per thread, [[Scratch.local]].
    */
  final class Scratch {
    private[core] var rows, cols, n = 0
    /** The label sum `Σ lx + Σ ly` when the last [[hungarianMax]] returned. */
    private[core] var labelSum = 0.0
    /** The largest n the arrays hold. */
    private var cap = 0
    private[core] var w, lx, ly, slack: Array[Double] = Array.emptyDoubleArray
    private[core] var way, matchL, matchR, sRows, tCols, rowOf: Array[Int] = Array.emptyIntArray
    private[core] var inT: Array[Boolean] = Array.emptyBooleanArray

    /** Sizes the scratch for a rows × cols matrix and zero-fills its n×n
      * padded prefix.
      */
    private[core] def reset(nRows: Int, nCols: Int): Unit = {
      rows = nRows; cols = nCols; n = math.max(nRows, nCols)
      if (n > cap) {
        cap = math.max(n, math.min(cap + cap / 2, 46340)) // 46,340² < Int.MaxValue
        w = new Array[Double](cap * cap)
        lx = new Array[Double](cap); ly = new Array[Double](cap); slack = new Array[Double](cap)
        way = new Array[Int](cap); matchL = new Array[Int](cap); matchR = new Array[Int](cap)
        sRows = new Array[Int](cap); tCols = new Array[Int](cap); inT = new Array[Boolean](cap)
      } else java.util.Arrays.fill(w, 0, n * n, 0.0)
    }
  }

  object Scratch {
    private val perThread = ThreadLocal.withInitial[Scratch](() => new Scratch)

    /** The calling thread's scratch, kept across queries. */
    def local(): Scratch = perThread.get
  }

  /** θ_lb as one thread publishes it to the kernel runs of others: a run
    * given a `LiveThreshold` reads `value` at every label-sum check.
    */
  private[core] final class LiveThreshold(@volatile var value: Double)

  /** Weight matrix of one (query, candidate) pair, from the search's edge
    * table, written into `s` (the matrix [[hungarianMax]] solves next).
    *
    * Full (`reduced = false`) is the paper's matrix construction (§VIII-A3):
    * ALL query tokens × ALL candidate tokens, zero where no α-edge, exactly
    * like the hungarian-algorithm-cpp implementation the paper uses — so one
    * verification costs O(max(|Q|,|C|)³) however sparse the graph is. This
    * cost model is what makes the unfiltered baseline explode and the filter
    * stack pay off. Reduced (`KoiosParams.reducedGraphs`) keeps only the
    * query positions and candidate tokens with ≥1 α-edge, in their original
    * order — an optimization beyond the paper with identical scores. Either
    * way a candidate without any α-edge gives the empty matrix. A cell keeps
    * the largest similarity of its edges, so the order of a token's edges
    * does not matter.
    *
    * @param qCount |Q|; rows are query positions
    * @param cols   the candidate's token ids in `edges` (for a record of an
    *               [[InvertedIndex]], `inverted.tokenIds(record)`); columns
    * @param edges  token id → (qIdx, sim) edges with sim ≥ α (the token
    *               stream's similarity cache); ids without edges have none
    */
  def weights(qCount: Int, cols: Array[Int], edges: Edges, reduced: Boolean, s: Scratch): Unit = {
    // Row of each query position: reduced, the positions with an edge in
    // order; full, every position.
    if (s.rowOf.length < qCount) s.rowOf = new Array[Int](qCount)
    val rowOf = s.rowOf
    java.util.Arrays.fill(rowOf, 0, qCount, if (reduced) -1 else 0)
    var edged = 0 // columns with an edge
    var c = 0
    while (c < cols.length) {
      var e = edges.head(cols(c))
      if (e != 0) edged += 1
      while (e != 0) { rowOf(edges.qIdx(e)) = 0; e = edges.next(e) }
      c += 1
    }
    var nRows = 0
    var qi = 0
    while (qi < qCount) { if (rowOf(qi) == 0) { rowOf(qi) = nRows; nRows += 1 }; qi += 1 }
    if (edged == 0) { s.reset(0, 0); return }
    s.reset(nRows, if (reduced) edged else cols.length)
    val w = s.w
    val n = s.n
    var col = 0
    c = 0
    while (c < cols.length) {
      val first = edges.head(cols(c))
      var e = first
      while (e != 0) {
        val cell = rowOf(edges.qIdx(e)) * n + col
        w(cell) = math.max(w(cell), edges.sim(e))
        e = edges.next(e)
      }
      if (first != 0 || !reduced) col += 1
      c += 1
    }
  }

  /** Maximum-weight bipartite matching of the matrix last written into `s`,
    * via Kuhn–Munkres with node labels and slack arrays, O(n³). The running
    * node-label sum `Σ lx + Σ ly` is an anytime upper bound on the optimal
    * matching score (Kuhn–Munkres theorem); when it drops below `theta` the
    * computation aborts with [[EarlyTerminated]] — the EM-Early-Terminated
    * filter of Lemma 8. The deadline is read once per augmentation root, so a
    * run overshoots it by at most one root, O(n²).
    *
    * @param theta         early-termination threshold;
    *                      `Double.NegativeInfinity` disables the filter
    * @param deadlineNanos `System.nanoTime` after which the run returns
    *                      [[Interrupted]]; 0 for none
    */
  def hungarianMax(s: Scratch, theta: Double = Double.NegativeInfinity,
                   deadlineNanos: Long = 0L): HungarianOutcome =
    kernel(s, theta, null, deadlineNanos)

  /** [[hungarianMax]] against the threshold `live` holds at each check. */
  private[core] def hungarianMax(s: Scratch, live: LiveThreshold,
                                 deadlineNanos: Long): HungarianOutcome =
    kernel(s, Double.NegativeInfinity, live, deadlineNanos)

  /** The outcome that a run at `theta` has, from a run of the same matrix
    * against thresholds never above `theta` that returned `out` with final
    * label sum `labelSum` ([[Scratch]]`.labelSum`). The label sums a run
    * checks never rise and do not depend on its threshold, so a run that
    * stopped early would also stop at `theta`, and a completed one would stop
    * iff its last (smallest) label sum is below `theta − PruneEps`. An
    * `Interrupted` run says nothing and stays `Interrupted`.
    */
  private[core] def replay(out: HungarianOutcome, labelSum: Double, theta: Double): HungarianOutcome =
    out match {
      case Completed(_) if labelSum < theta - PruneEps => EarlyTerminated
      case other                                       => other
    }

  private def kernel(s: Scratch, theta: Double, live: LiveThreshold,
                     deadlineNanos: Long): HungarianOutcome = {
    // The pruning limit: the fixed `theta`, or what `live` holds now.
    def limit: Double = (if (live eq null) theta else live.value) - PruneEps
    val rows = s.rows
    val cols = s.cols
    s.labelSum = 0.0
    if (rows == 0 || cols == 0) {
      return if (0.0 < limit) EarlyTerminated else Completed(0.0)
    }
    val n = s.n
    val w = s.w
    val lx = s.lx
    val ly = s.ly
    val slack = s.slack
    val way = s.way
    val matchL = s.matchL
    val matchR = s.matchR
    val sRows = s.sRows
    val tCols = s.tCols
    val inT = s.inT

    // Padding rows and columns are 0.0, so row maxima and slacks equal those
    // over the unpadded rows × cols matrix.
    var labelSum = 0.0
    var i = 0
    while (i < n) {
      var m = 0.0; var j = 0; val base = i * n
      while (j < cols) { if (w(base + j) > m) m = w(base + j); j += 1 }
      lx(i) = m
      labelSum += m
      i += 1
    }
    s.labelSum = labelSum
    if (labelSum < limit) return EarlyTerminated

    java.util.Arrays.fill(ly, 0, n, 0.0)
    java.util.Arrays.fill(matchL, 0, n, -1)
    java.util.Arrays.fill(matchR, 0, n, -1)

    // One alternating tree per root: rows S and columns T as lists (sRows,
    // tCols; inT marks T), the slack of the columns outside T in one pass
    // per row added (addRow).
    var root = 0
    while (root < n) {
      if (deadlineNanos > 0 && System.nanoTime() > deadlineNanos) return Interrupted
      java.util.Arrays.fill(inT, 0, n, false)
      java.util.Arrays.fill(slack, 0, n, Double.PositiveInfinity)
      sRows(0) = root
      var sCount = 1
      var tCount = 0
      var jmin = addRow(s, root, 0.0)
      var endCol = -1
      while (endCol == -1) {
        val delta = slack(jmin)
        val shift = delta > Eps
        if (shift) {
          var k = 0
          while (k < sCount) { lx(sRows(k)) -= delta; k += 1 }
          k = 0
          while (k < tCount) { ly(tCols(k)) += delta; k += 1 }
          // |S| = |T| + 1 in the alternating tree, so the sum shrinks by delta.
          labelSum -= delta
          s.labelSum = labelSum
          if (labelSum < limit) return EarlyTerminated
        }
        inT(jmin) = true
        tCols(tCount) = jmin; tCount += 1
        val r = matchR(jmin)
        if (r == -1) endCol = jmin
        else {
          sRows(sCount) = r; sCount += 1
          jmin = addRow(s, r, if (shift) delta else 0.0)
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
    i = 0
    while (i < rows) {
      val j = matchL(i)
      if (j >= 0 && j < cols) score += w(i * n + j)
      i += 1
    }
    Completed(score)
  }

  /** Adds row `r` to the alternating tree: one pass over the columns outside
    * T lowers each slack by the label shift `d` just applied (0.0 when none:
    * x − 0.0 == x for every double), relaxes it by row `r` and returns the
    * first column of least slack. Per column these are the operations, in
    * the order, of a shift pass, a relax pass and a minimum scan run one
    * after another. A root starts from slacks of +∞, which every finite
    * weight relaxes.
    */
  private def addRow(s: Scratch, r: Int, d: Double): Int = {
    val n = s.n
    val w = s.w
    val ly = s.ly
    val slack = s.slack
    val way = s.way
    val inT = s.inT
    val lr = s.lx(r)
    val rBase = r * n
    var delta = Double.MaxValue
    var jmin = -1
    var j = 0
    while (j < n) {
      if (!inT(j)) {
        var sj = slack(j) - d
        val sl = lr + ly(j) - w(rBase + j)
        if (sl < sj) { sj = sl; way(j) = r }
        slack(j) = sj
        if (sj < delta) { delta = sj; jmin = j }
      }
      j += 1
    }
    jmin
  }

  /** Reference SO(Q, C) computed directly from the similarity function —
    * used by tests and the brute-force reference.
    */
  def semanticOverlapDirect(qTokens: Array[String], cTokens: Array[String],
                            simFn: TokenSimilarity, alpha: Double): Double = {
    // One table for this record: token id = column.
    val edges = new Edges(cTokens.length)
    for (c <- cTokens.indices; qi <- qTokens.indices) {
      val sim = simFn.simAlpha(qTokens(qi), cTokens(c), alpha)
      if (sim > 0.0) edges.add(c, qi, sim)
    }
    val s = new Scratch
    weights(qTokens.length, Array.range(0, cTokens.length), edges, reduced = true, s)
    hungarianMax(s) match {
      case Completed(so) => so
      case other         => throw new IllegalStateException(s"unreachable without a threshold: $other")
    }
  }
}
