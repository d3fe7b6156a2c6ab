package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import ExplicitMatrix.{load, read}

/** Exhaustive-reference tests for the Hungarian kernel, the greedy matching
  * (refinement's lower bound), and the label-sum early-termination filter
  * (Lemma 8).
  */
class MatchingSpec extends AnyFunSuite {

  /** Brute-force maximum-weight optional matching (rows pick distinct cols). */
  private def bruteMax(w: Array[Array[Double]]): Double = {
    val cols = if (w.isEmpty) 0 else w(0).length
    def rec(i: Int, used: Long): Double =
      if (i == w.length) 0.0
      else {
        var best = rec(i + 1, used)
        var j = 0
        while (j < cols) {
          if ((used & (1L << j)) == 0)
            best = math.max(best, w(i)(j) + rec(i + 1, used | (1L << j)))
          j += 1
        }
        best
      }
    rec(0, 0L)
  }

  private def randomMatrix(rng: Random, rows: Int, cols: Int, sparsity: Double = 0.0)
      : Array[Array[Double]] =
    Array.fill(rows, cols) {
      if (rng.nextDouble() < sparsity) 0.0
      else math.round(rng.nextDouble() * 1000) / 1000.0
    }

  private def score(o: HungarianOutcome): Double = o match {
    case Completed(s)    => s
    case other           => fail(s"unexpected $other")
  }

  /** The matrix of one (query, candidate) pair, built into `s` from a table
    * of `edgesOf` over the candidate's distinct tokens.
    */
  private def built(qCount: Int, cTokens: Array[String], edgesOf: String => Array[(Int, Double)],
                    reduced: Boolean, s: Matching.Scratch = new Matching.Scratch): Matching.Scratch = {
    val tokens = cTokens.distinct.toSeq
    Matching.weights(qCount, cTokens.map(tokens.indexOf(_)), EdgeTables.table(tokens, edgesOf),
      reduced, s)
    s
  }

  test("empty matrix has score 0") {
    assert(score(Matching.hungarianMax(load(Array.empty))) == 0.0)
  }

  test("1x1 matrix") {
    assert(score(Matching.hungarianMax(load(Array(Array(0.7))))) == 0.7)
  }

  test("identity-best square matrix") {
    val w = Array(
      Array(1.0, 0.2, 0.1),
      Array(0.1, 1.0, 0.3),
      Array(0.0, 0.2, 1.0))
    assert(math.abs(score(Matching.hungarianMax(load(w))) - 3.0) < 1e-9)
  }

  test("hungarian equals brute force on 300 random square matrices") {
    val rng = new Random(1)
    for (_ <- 1 to 300) {
      val n = 1 + rng.nextInt(6)
      val w = randomMatrix(rng, n, n)
      assert(math.abs(score(Matching.hungarianMax(load(w))) - bruteMax(w)) < 1e-9)
    }
  }

  test("hungarian equals brute force on 300 random rectangular matrices") {
    val rng = new Random(2)
    for (_ <- 1 to 300) {
      val rows = 1 + rng.nextInt(6)
      val cols = 1 + rng.nextInt(7)
      val w = randomMatrix(rng, rows, cols)
      assert(math.abs(score(Matching.hungarianMax(load(w))) - bruteMax(w)) < 1e-9)
    }
  }

  test("hungarian equals brute force on sparse matrices") {
    val rng = new Random(3)
    for (_ <- 1 to 200) {
      val rows = 1 + rng.nextInt(6)
      val cols = 1 + rng.nextInt(6)
      val w = randomMatrix(rng, rows, cols, sparsity = 0.7)
      assert(math.abs(score(Matching.hungarianMax(load(w))) - bruteMax(w)) < 1e-9)
    }
  }

  test("greedy matching is between half-optimal and optimal (Lemma 3)") {
    // The greedy matching is refinement's lower bound: one candidate set whose
    // α-edges to the query are exactly the non-zero cells of w.
    val rng = new Random(4)
    for (_ <- 1 to 200) {
      val rows = 1 + rng.nextInt(6)
      val cols = 1 + rng.nextInt(6)
      val w = randomMatrix(rng, rows, cols, sparsity = 0.4)
      val query = Array.tabulate(rows)(i => s"q$i")
      val cTokens = Seq.tabulate(cols)(j => s"c$j")
      val idx = new PrecomputedSimilarityIndex(query.indices.map { i =>
        query(i) -> cTokens.indices.collect { case j if w(i)(j) > 0.0 => cTokens(j) -> w(i)(j) }.toArray
      }.toMap)
      val coll = new SetCollection(IndexedSeq(SetRecord(0L, cTokens)))
      val alpha = 0.001
      val out = Refinement.run(coll.records, coll.inverted, new TokenStream(query, idx, alpha),
        query, KoiosParams(1, alpha), deadlineNanos = 0L)
      val opt = bruteMax(w)
      if (opt == 0.0) assert(out.survivors.isEmpty)
      else {
        assert(out.survivors.length == 1)
        val greedy = out.survivors.head.lb
        assert(greedy <= opt + 1e-9)
        assert(greedy >= opt / 2.0 - 1e-9)
      }
    }
  }

  test("early termination fires exactly when the optimum is below θ (Lemma 8)") {
    val rng = new Random(5)
    var fired = 0
    var completed = 0
    for (_ <- 1 to 400) {
      val n = 1 + rng.nextInt(6)
      val w = randomMatrix(rng, n, n, sparsity = 0.3)
      val opt = bruteMax(w)
      val theta = rng.nextDouble() * (n + 0.5)
      if (math.abs(opt - theta) > 1e-6) { // avoid float-boundary flakiness
        Matching.hungarianMax(load(w), theta) match {
          case EarlyTerminated =>
            fired += 1
            assert(opt < theta, s"terminated although opt=$opt >= theta=$theta")
          case Completed(s) =>
            completed += 1
            assert(math.abs(s - opt) < 1e-9)
            assert(opt >= theta, s"completed although opt=$opt < theta=$theta")
          case Interrupted =>
            fail("interrupted without a deadline")
        }
      }
    }
    assert(fired > 20, s"early termination never exercised ($fired)")
    assert(completed > 20)
  }

  test("early termination with -inf threshold never fires") {
    val rng = new Random(6)
    for (_ <- 1 to 50) {
      val w = randomMatrix(rng, 4, 4)
      assert(Matching.hungarianMax(load(w), Double.NegativeInfinity).isInstanceOf[Completed])
    }
  }

  private val sparseEdges = Map(
    "a" -> Array((0, 0.9)),
    "b" -> Array((2, 0.8), (0, 0.85)))
  private def sparseEdgesOf(t: String): Array[(Int, Double)] =
    sparseEdges.getOrElse(t, Array.empty[(Int, Double)])

  test("full weights span every query token and every candidate token") {
    val w = read(built(3, Array("zzz", "a", "b"), sparseEdgesOf, reduced = false))
    assert(w == Seq(
      Seq(0.0, 0.9, 0.85), // q0
      Seq(0.0, 0.0, 0.0), // q1: no edge, still a row
      Seq(0.0, 0.0, 0.8))) // q2
  }

  test("reduced weights keep only rows and columns with an edge") {
    val w = read(built(3, Array("b", "zzz", "a"), sparseEdgesOf, reduced = true))
    // In order: rows q0, q2 (q1 dropped); cols b, a (zzz dropped).
    assert(w == Seq(Seq(0.85, 0.9), Seq(0.8, 0.0)))
  }

  test("edgeless candidate gives the empty matrix; SO is 0") {
    for (reduced <- Seq(false, true)) {
      val w = built(2, Array("x", "y"), _ => Array.empty[(Int, Double)], reduced)
      assert(read(w).isEmpty)
      assert(Matching.hungarianMax(w) == Completed(0.0))
      assert(Matching.hungarianMax(w, 0.5) == EarlyTerminated)
    }
  }

  test("semanticOverlapDirect reproduces the paper's Fig. 1 semantic ranking") {
    // Hand-built similarity emulating Fig. 1: C2 must beat C1 under semantic
    // overlap although both share the exact matches LA/Blain(e).
    val sims: Map[(String, String), Double] = Map(
      ("LA", "LA") -> 1.0,
      ("Blaine", "Blain") -> 0.9,
      ("BigApple", "NewYorkCity") -> 0.9,
      ("BigApple", "Appleton") -> 0.1, // character-level lookalike, semantically unrelated
      ("Charleston", "SC") -> 0.8,
      ("Columbia", "SC") -> 0.75)
    val simFn = new TokenSimilarity {
      def sim(a: String, b: String): Double =
        if (a == b) 1.0 else sims.getOrElse((a, b), sims.getOrElse((b, a), 0.0))
    }
    val q = Array("LA", "Blaine", "BigApple", "Charleston", "Columbia")
    val c1 = Array("LA", "Blain", "Appleton", "Boston", "Denver")
    val c2 = Array("LA", "Blain", "NewYorkCity", "SC", "Miami")
    val so1 = Matching.semanticOverlapDirect(q, c1, simFn, 0.7)
    val so2 = Matching.semanticOverlapDirect(q, c2, simFn, 0.7)
    assert(math.abs(so1 - 1.9) < 1e-9) // LA + Blain(e); Appleton below α
    assert(math.abs(so2 - 3.6) < 1e-9) // LA + Blaine~Blain + BigApple~NYC + Charleston~SC
    assert(so2 > so1)
  }

  test("SO with one-to-one constraint: an element is used at most once") {
    val simFn = new TokenSimilarity {
      def sim(a: String, b: String): Double = if (a.head == b.head) 0.9 else 0.0
    }
    // Both query tokens match the single candidate token: only one edge counts.
    val so = Matching.semanticOverlapDirect(Array("a1", "a2"), Array("a3"), simFn, 0.5)
    assert(math.abs(so - 0.9) < 1e-9)
  }

  test("vanilla overlap is a lower bound for SO (Lemma 1)") {
    val rng = new Random(7)
    val vocab = (0 until 20).map(i => s"w$i").toArray
    val emb = vocab.map(t => t -> Array.fill(8)(rng.nextGaussian().toFloat)).toMap
    val simFn = new EmbeddingCosineSimilarity(emb)
    for (_ <- 1 to 100) {
      val q = rng.shuffle(vocab.toSeq).take(1 + rng.nextInt(8)).toArray
      val c = rng.shuffle(vocab.toSeq).take(1 + rng.nextInt(8)).toArray
      val vanilla = q.toSet.intersect(c.toSet).size.toDouble
      val so = Matching.semanticOverlapDirect(q, c, simFn, 0.3)
      assert(so >= vanilla - 1e-9)
    }
  }

  test("SO is symmetric") {
    val rng = new Random(8)
    val vocab = (0 until 15).map(i => s"w$i").toArray
    val emb = vocab.map(t => t -> Array.fill(8)(rng.nextGaussian().toFloat)).toMap
    val simFn = new EmbeddingCosineSimilarity(emb)
    for (_ <- 1 to 60) {
      val q = rng.shuffle(vocab.toSeq).take(1 + rng.nextInt(6)).toArray
      val c = rng.shuffle(vocab.toSeq).take(1 + rng.nextInt(6)).toArray
      val so1 = Matching.semanticOverlapDirect(q, c, simFn, 0.4)
      val so2 = Matching.semanticOverlapDirect(c, q, simFn, 0.4)
      assert(math.abs(so1 - so2) < 1e-9)
    }
  }

  test("full (paper-kernel) and reduced graphs give identical scores") {
    val rng = new Random(15)
    val vocab = (0 until 20).map(i => s"w$i").toArray
    val emb = vocab.map(t => t -> Array.fill(8)(rng.nextGaussian().toFloat)).toMap
    val simFn = new EmbeddingCosineSimilarity(emb)
    for (_ <- 1 to 60) {
      val q = rng.shuffle(vocab.toSeq).take(1 + rng.nextInt(8)).toArray
      val c = rng.shuffle(vocab.toSeq).take(1 + rng.nextInt(8)).toArray
      val edges = MatchingOracle.directEdges(q, simFn, 0.4)
      val reduced = Matching.hungarianMax(built(q.length, c, edges, reduced = true))
      val full = Matching.hungarianMax(built(q.length, c, edges, reduced = false))
      (reduced, full) match {
        case (Completed(a), Completed(b)) => assert(math.abs(a - b) < 1e-9)
        case other                        => fail(s"unexpected: $other")
      }
    }
  }

  test("full-graph early termination matches reduced-graph semantics") {
    val rng = new Random(16)
    val vocab = (0 until 15).map(i => s"w$i").toArray
    val emb = vocab.map(t => t -> Array.fill(8)(rng.nextGaussian().toFloat)).toMap
    val simFn = new EmbeddingCosineSimilarity(emb)
    for (_ <- 1 to 60) {
      val q = rng.shuffle(vocab.toSeq).take(1 + rng.nextInt(6)).toArray
      val c = rng.shuffle(vocab.toSeq).take(1 + rng.nextInt(6)).toArray
      val edges = MatchingOracle.directEdges(q, simFn, 0.4)
      val so = Matching.semanticOverlapDirect(q, c, simFn, 0.4)
      val theta = rng.nextDouble() * 3
      if (math.abs(so - theta) > 1e-6) {
        val w = built(q.length, c, edges, reduced = false)
        val out = Matching.hungarianMax(w, theta)
        if (so < theta) assert(out == EarlyTerminated)
        else assert(out.isInstanceOf[Completed])
      }
    }
  }

  /** Entries with exact zeros, ties at 1.0 and a repeated mid value. */
  private def tiedMatrix(rng: Random, rows: Int, cols: Int): Array[Array[Double]] =
    Array.fill(rows, cols) {
      rng.nextInt(5) match {
        case 0 => 0.0
        case 1 => 1.0
        case 2 => 0.5
        case _ => rng.nextDouble()
      }
    }

  /** Thresholds that put Lemma 8's checks on their boundaries: the initial
    * label sum Σ row max and the optimum, each exactly and ±`PruneEps`, with
    * the neighbouring doubles of the shifted values.
    */
  private def boundaryThetas(w: Array[Array[Double]]): Seq[Double] = {
    val initial = w.foldLeft(0.0)((sum, row) => sum + row.foldLeft(0.0)(math.max))
    val opt = MatchingOracle.hungarianMax(w) match {
      case Completed(so) => so
      case other         => fail(s"unexpected $other")
    }
    Seq(initial, opt).flatMap { t =>
      val up = t + Matching.PruneEps
      val down = t - Matching.PruneEps
      Seq(t, up, down, math.nextUp(up), math.nextDown(up), math.nextUp(down), math.nextDown(down))
    } :+ Double.NegativeInfinity :+ 0.0
  }

  test("flat kernel outcomes == the Array[Array] oracle's, thresholds on the boundaries") {
    val rng = new Random(17)
    val s = new Matching.Scratch // reused across every shape, larger and smaller
    val shapes = Seq((0, 0), (0, 4), (3, 0)) ++ Seq.fill(400) {
      val rows = rng.nextInt(9)
      val cols = rng.nextInt(9)
      (rows, cols)
    }
    var early = 0
    var completed = 0
    for ((rows, cols) <- shapes) {
      val w = if (rows == 0) Array.empty[Array[Double]] else tiedMatrix(rng, rows, cols)
      for (theta <- boundaryThetas(w)) {
        val want = MatchingOracle.hungarianMax(w, theta)
        val got = Matching.hungarianMax(load(w, s), theta)
        assert(got == want, s"${rows}x$cols theta=$theta")
        if (got == EarlyTerminated) early += 1 else completed += 1
      }
    }
    assert(shapes.exists { case (r, c) => r < c } && shapes.exists { case (r, c) => r > c })
    assert(early > 100 && completed > 100, s"early=$early completed=$completed")
  }

  test("a run at a lower threshold, classified by its last label sum, == the run at θ") {
    val rng = new Random(21)
    val s = new Matching.Scratch
    var replayedEarly = 0
    for (_ <- 1 to 300) {
      val w = tiedMatrix(rng, rng.nextInt(9), 1 + rng.nextInt(8))
      val thetas = boundaryThetas(w)
      for (theta <- thetas; lower <- thetas if lower <= theta) {
        val want = Matching.hungarianMax(load(w, s), theta)
        val at = Matching.hungarianMax(load(w, s), new Matching.LiveThreshold(lower), 0L)
        assert(Matching.replay(at, s.labelSum, theta) == want, s"θ′ = $lower, θ = $theta")
        if (at.isInstanceOf[Completed] && want == EarlyTerminated) replayedEarly += 1
      }
    }
    assert(replayedEarly > 100, s"only $replayedEarly completed runs replayed as early-terminated")
  }

  test("builder writes the oracle builder's matrix; both kernels' outcomes ==") {
    val rng = new Random(18)
    val vocab = (0 until 10).map(i => s"t$i").toArray
    val s = new Matching.Scratch
    for (_ <- 1 to 300) {
      val qCount = rng.nextInt(8)
      // Edge lists may repeat a query position (the builder keeps the max)
      // and some tokens have none.
      val edges: Map[String, Array[(Int, Double)]] =
        if (qCount == 0) Map.empty
        else vocab.map { t =>
          t -> Array.fill(rng.nextInt(4))((rng.nextInt(qCount), tiedMatrix(rng, 1, 1)(0)(0)))
            .filter(_._2 > 0.0)
        }.toMap
      val edgesOf = (t: String) => edges.getOrElse(t, Array.empty[(Int, Double)])
      val table = EdgeTables.table(vocab.toSeq, edgesOf) // token id = position in vocab
      val cTokens = rng.shuffle(vocab.toSeq).take(rng.nextInt(vocab.length + 1)).toArray
      for (reduced <- Seq(false, true)) {
        val want = MatchingOracle.weights(qCount, cTokens, edgesOf, reduced)
        Matching.weights(qCount, cTokens.map(vocab.indexOf(_)), table, reduced, s)
        assert(read(s) == want.map(_.toSeq).toSeq)
        for (theta <- boundaryThetas(want))
          assert(Matching.hungarianMax(s, theta) == MatchingOracle.hungarianMax(want, theta))
      }
    }
  }

  test("a reused scratch leaks no cell of a larger matrix into a smaller one") {
    val rng = new Random(19)
    val s = new Matching.Scratch
    val big = Array.fill(12, 12)(1.0)
    val small = Array(Array(0.0, 0.3, 0.0, 0.0), Array(0.0, 0.0, 0.0, 0.2), Array(0.0, 0.0, 0.0, 0.0))
    val bigAgain = tiedMatrix(rng, 10, 12)
    for (w <- Seq(big, small, bigAgain, small)) {
      assert(read(load(w, s)) == w.map(_.toSeq).toSeq)
      assert(Matching.hungarianMax(load(w, s)) == MatchingOracle.hungarianMax(w))
    }
    assert(Matching.hungarianMax(load(small, s)) == Completed(0.5))
    // The same through the builder: a full 6 × 6 matrix of ones, then 2 × 3.
    val ones = (t: String) => if (t.startsWith("a")) Array.tabulate(6)(q => (q, 1.0)) else Array((1, 0.4))
    built(6, Array.tabulate(6)(i => s"a$i"), ones, reduced = false, s)
    assert(Matching.hungarianMax(s) == Completed(6.0))
    built(2, Array("b", "c", "d"), ones, reduced = false, s)
    assert(read(s) == Seq(Seq(0.0, 0.0, 0.0), Seq(0.4, 0.4, 0.4)))
    assert(Matching.hungarianMax(s) == Completed(0.4))
  }

  test("a deadline interrupts a 1500 x 1500 matching within 100 ms (one root, O(n²))") {
    val rng = new Random(20)
    val n = 1500
    val s = load(Array.fill(n, n)(rng.nextDouble()))
    val deadline = System.nanoTime() + 20L * 1000000L // a 20 ms budget
    val out = Matching.hungarianMax(s, Double.NegativeInfinity, deadline)
    val overshootMs = (System.nanoTime() - deadline) / 1e6
    assert(out == Interrupted)
    assert(overshootMs <= 100.0, s"returned $overshootMs ms after the deadline")
  }
}
