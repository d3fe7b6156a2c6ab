package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

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
    case EarlyTerminated => fail("unexpected early termination")
  }

  test("empty matrix has score 0") {
    assert(score(Matching.hungarianMax(Array.empty)) == 0.0)
  }

  test("1x1 matrix") {
    assert(score(Matching.hungarianMax(Array(Array(0.7)))) == 0.7)
  }

  test("identity-best square matrix") {
    val w = Array(
      Array(1.0, 0.2, 0.1),
      Array(0.1, 1.0, 0.3),
      Array(0.0, 0.2, 1.0))
    assert(math.abs(score(Matching.hungarianMax(w)) - 3.0) < 1e-9)
  }

  test("hungarian equals brute force on 300 random square matrices") {
    val rng = new Random(1)
    for (_ <- 1 to 300) {
      val n = 1 + rng.nextInt(6)
      val w = randomMatrix(rng, n, n)
      assert(math.abs(score(Matching.hungarianMax(w)) - bruteMax(w)) < 1e-9)
    }
  }

  test("hungarian equals brute force on 300 random rectangular matrices") {
    val rng = new Random(2)
    for (_ <- 1 to 300) {
      val rows = 1 + rng.nextInt(6)
      val cols = 1 + rng.nextInt(7)
      val w = randomMatrix(rng, rows, cols)
      assert(math.abs(score(Matching.hungarianMax(w)) - bruteMax(w)) < 1e-9)
    }
  }

  test("hungarian equals brute force on sparse matrices") {
    val rng = new Random(3)
    for (_ <- 1 to 200) {
      val rows = 1 + rng.nextInt(6)
      val cols = 1 + rng.nextInt(6)
      val w = randomMatrix(rng, rows, cols, sparsity = 0.7)
      assert(math.abs(score(Matching.hungarianMax(w)) - bruteMax(w)) < 1e-9)
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
        Matching.hungarianMax(w, theta) match {
          case EarlyTerminated =>
            fired += 1
            assert(opt < theta, s"terminated although opt=$opt >= theta=$theta")
          case Completed(s) =>
            completed += 1
            assert(math.abs(s - opt) < 1e-9)
            assert(opt >= theta, s"completed although opt=$opt < theta=$theta")
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
      assert(Matching.hungarianMax(w, Double.NegativeInfinity).isInstanceOf[Completed])
    }
  }

  private val sparseEdges = Map(
    "a" -> Array((0, 0.9)),
    "b" -> Array((2, 0.8), (0, 0.85)))
  private def sparseEdgesOf(t: String): Array[(Int, Double)] =
    sparseEdges.getOrElse(t, Array.empty[(Int, Double)])

  test("full weights span every query token and every candidate token") {
    val w = Matching.weights(3, Array("zzz", "a", "b"), sparseEdgesOf, reduced = false)
    assert(w.map(_.toSeq).toSeq == Seq(
      Seq(0.0, 0.9, 0.85), // q0
      Seq(0.0, 0.0, 0.0), // q1: no edge, still a row
      Seq(0.0, 0.0, 0.8))) // q2
  }

  test("reduced weights keep only rows and columns with an edge") {
    val w = Matching.weights(3, Array("b", "zzz", "a"), sparseEdgesOf, reduced = true)
    // In order: rows q0, q2 (q1 dropped); cols b, a (zzz dropped).
    assert(w.map(_.toSeq).toSeq == Seq(Seq(0.85, 0.9), Seq(0.8, 0.0)))
  }

  test("edgeless candidate gives the empty matrix; SO is 0") {
    for (reduced <- Seq(false, true)) {
      val w = Matching.weights(2, Array("x", "y"), _ => Array.empty[(Int, Double)], reduced)
      assert(w.isEmpty)
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
      val edges = Matching.directEdges(q, simFn, 0.4)
      val reduced = Matching.hungarianMax(Matching.weights(q.length, c, edges, reduced = true))
      val full = Matching.hungarianMax(Matching.weights(q.length, c, edges, reduced = false))
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
      val edges = Matching.directEdges(q, simFn, 0.4)
      val so = Matching.semanticOverlapDirect(q, c, simFn, 0.4)
      val theta = rng.nextDouble() * 3
      if (math.abs(so - theta) > 1e-6) {
        val w = Matching.weights(q.length, c, edges, reduced = false)
        val out = Matching.hungarianMax(w, theta)
        if (so < theta) assert(out == EarlyTerminated)
        else assert(out.isInstanceOf[Completed])
      }
    }
  }
}
