package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SimilarityIndexSpec extends AnyFunSuite {

  private def clusteredEmbeddings(rng: Random, clusters: Int, perCluster: Int, dim: Int = 8)
      : Map[String, Array[Float]] = {
    (0 until clusters).flatMap { c =>
      val centroid = Array.fill(dim)(rng.nextGaussian())
      (0 until perCluster).map { j =>
        val v = centroid.map(x => (x + rng.nextGaussian() * 0.15).toFloat)
        s"c${c}_$j" -> v
      }
    }.toMap
  }

  test("brute-force index returns descending similarities") {
    val rng = new Random(20)
    val emb = clusteredEmbeddings(rng, 5, 4)
    val vocab = emb.keys.toArray.sorted
    val idx = new BruteForceSimilarityIndex(vocab, new EmbeddingCosineSimilarity(emb))
    for (q <- vocab.take(10)) {
      val ns = idx.neighbors(q, 0.3)
      assert(ns.map(_._2).toSeq == ns.map(_._2).toSeq.sorted(Ordering[Double].reverse))
    }
  }

  test("brute-force index is complete and exact vs direct computation") {
    val rng = new Random(21)
    val emb = clusteredEmbeddings(rng, 6, 3)
    val simFn = new EmbeddingCosineSimilarity(emb)
    val vocab = emb.keys.toArray.sorted
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    for (q <- vocab) {
      val expected = vocab.map(t => (t, simFn.sim(q, t))).filter(_._2 >= 0.5).toMap
      val got = idx.neighbors(q, 0.5).toMap
      assert(got.keySet == expected.keySet)
      got.foreach { case (t, s) => assert(math.abs(s - expected(t)) < 1e-9) }
    }
  }

  test("self token always first with similarity 1") {
    val rng = new Random(22)
    val emb = clusteredEmbeddings(rng, 4, 3)
    val vocab = emb.keys.toArray.sorted
    val idx = new BruteForceSimilarityIndex(vocab, new EmbeddingCosineSimilarity(emb))
    for (q <- vocab.take(6)) {
      val ns = idx.neighbors(q, 0.8)
      assert(ns.head == ((q, 1.0)))
    }
  }

  test("OOV query token in vocabulary matches only itself (§V OOV rule)") {
    val emb = Map("a" -> Array(1f, 0f, 0f))
    val vocab = Array("a", "oovtok", "b")
    val idx = new BruteForceSimilarityIndex(vocab, new EmbeddingCosineSimilarity(emb))
    assert(idx.neighbors("oovtok", 0.5).toSeq == Seq(("oovtok", 1.0)))
  }

  test("query token absent from vocabulary yields no neighbors") {
    val emb = Map("a" -> Array(1f, 0f))
    val idx = new BruteForceSimilarityIndex(Array("a"), new EmbeddingCosineSimilarity(emb))
    assert(idx.neighbors("ghost", 0.5).isEmpty)
  }

  test("OOV vocabulary tokens never match a different query token") {
    val emb = Map("a" -> Array(1f, 0f))
    val vocab = Array("a", "noVec1", "noVec2")
    val idx = new BruteForceSimilarityIndex(vocab, new EmbeddingCosineSimilarity(emb))
    assert(idx.neighbors("a", 0.1).toSeq == Seq(("a", 1.0)))
  }

  test("generic (non-embedding) similarity path works") {
    val j = new JaccardQGramSimilarity(3)
    val vocab = Array("blaine", "blain", "boston", "blainez")
    val idx = new BruteForceSimilarityIndex(vocab, j)
    val ns = idx.neighbors("blaine", 0.5)
    assert(ns.head == (("blaine", 1.0)))
    assert(ns.map(_._1).contains("blain"))
    assert(!ns.map(_._1).contains("boston"))
  }

  test("alpha threshold is inclusive") {
    val f = new TokenSimilarity {
      def sim(a: String, b: String) = if (a == b) 1.0 else 0.8
    }
    val idx = new BruteForceSimilarityIndex(Array("x", "y"), f)
    assert(idx.neighbors("x", 0.8).length == 2)
    assert(idx.neighbors("x", 0.80001).length == 1)
  }

  test("precomputed index filters by alpha and sorts descending") {
    val idx = new PrecomputedSimilarityIndex(Map(
      "q" -> Array(("a", 0.7), ("b", 0.95), ("c", 0.85))))
    assert(idx.neighbors("q", 0.8).toSeq == Seq(("b", 0.95), ("c", 0.85)))
    assert(idx.neighbors("q", 0.1).map(_._1).toSeq == Seq("b", "c", "a"))
    assert(idx.neighbors("missing", 0.1).isEmpty)
  }

  test("precomputed index orders unsorted input with ties by token, leaving the input as given") {
    val input = Array(("d", 0.8), ("a", 0.9), ("c", 0.8), ("b", 0.9), ("e", 0.5))
    val idx = new PrecomputedSimilarityIndex(Map("q" -> input))
    val all = Seq(("a", 0.9), ("b", 0.9), ("c", 0.8), ("d", 0.8), ("e", 0.5))
    assert(idx.neighbors("q", 0.5).toSeq == all)
    assert(idx.neighbors("q", 0.85).toSeq == all.take(2))
    assert(idx.neighbors("q", 0.5).toSeq == all) // a probe does not consume the list
    assert(input.map(_._1).mkString == "dacbe")
  }

  test("q-gram prefix index agrees with brute force (completeness + exactness)") {
    val j = new JaccardQGramSimilarity(3)
    val rng = new Random(23)
    val vocab = (0 until 80).map(_ => Random.alphanumeric.take(3 + rng.nextInt(8)).mkString)
      .distinct.toArray
    val prefix = new QGramPrefixIndex(vocab, j)
    val brute = new BruteForceSimilarityIndex(vocab, j)
    for (q <- vocab.take(25); alpha <- Seq(0.4, 0.6, 0.8)) {
      val a = prefix.neighbors(q, alpha).toSeq
      val b = brute.neighbors(q, alpha).toSeq
      assert(a == b, s"prefix index differs from brute force for q=$q alpha=$alpha")
    }
  }

  test("q-gram prefix index finds the query token itself") {
    val j = new JaccardQGramSimilarity(3)
    val prefix = new QGramPrefixIndex(Array("alpha", "beta"), j)
    assert(prefix.neighbors("alpha", 0.9).toSeq == Seq(("alpha", 1.0)))
  }

  test("deterministic tie-breaking by token") {
    val f = new TokenSimilarity {
      def sim(a: String, b: String) = if (a == b) 1.0 else 0.9
    }
    val idx = new BruteForceSimilarityIndex(Array("zz", "aa", "mm"), f)
    assert(idx.neighbors("aa", 0.5).map(_._1).toSeq == Seq("aa", "mm", "zz"))
  }

  test("flat kernel scores equal dotClamped bit for bit") {
    // 302 vocabulary tokens, every seventh without a vector, leaving an odd
    // number of 7-dimensional vectors for the two-row kernel; 11 query tokens
    // (not a multiple of four), among them tokens with a vector outside the
    // vocabulary, without a vector, and unknown.
    val rng = new Random(24)
    val emb = clusteredEmbeddings(rng, 50, 7, dim = 7)
    val simFn = new EmbeddingCosineSimilarity(emb)
    val all = emb.keys.toArray.sorted
    val vocab = all.take(302).zipWithIndex.map { case (t, i) => if (i % 7 == 3) s"bare$i" else t }
    assert(vocab.count(simFn.vectors.contains) % 2 == 1)
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    val queries = vocab.take(6) ++ Array(all(302), all(303), "bare10", "bare17", "ghost")

    def expected(q: String, alpha: Double): Seq[(String, Double)] =
      simFn.vectors.get(q) match {
        case None => if (vocab.contains(q)) Seq((q, 1.0)) else Nil
        case Some(qv) =>
          vocab.toSeq.map { t =>
            val s =
              if (t == q) 1.0
              else simFn.vectors.get(t).fold(0.0)(EmbeddingCosineSimilarity.dotClamped(qv, _))
            (t, s)
          }.filter(_._2 >= alpha).sortBy { case (t, s) => (-s, t) }
      }

    for (alpha <- Seq(0.0, 0.3, 0.8, 0.95)) {
      val batch = idx.neighborsAll(queries, alpha)
      queries.zip(batch).foreach { case (q, got) =>
        assert(got.toSeq == expected(q, alpha), s"q=$q alpha=$alpha")
        assert(idx.neighbors(q, alpha).toSeq == got.toSeq)
      }
    }
    assert(idx.neighbors(vocab(0), 0.3).length > 1)
  }

  /** One sequential pass over the whole vocabulary, in row order: every
    * token's score as `dotClamped` computes it (1 for the token itself, 0
    * without a vector), kept if ≥ α and sorted by (−sim, token).
    */
  private def sequentialScan(vocab: Array[String], simFn: EmbeddingCosineSimilarity,
                             q: String, alpha: Double): Seq[(String, Double)] =
    simFn.vectors.get(q) match {
      case None => if (vocab.contains(q)) Seq((q, 1.0)) else Nil
      case Some(qv) =>
        val hits = Seq.newBuilder[(String, Double)]
        for (t <- vocab) {
          val s =
            if (t == q) 1.0
            else simFn.vectors.get(t).fold(0.0)(EmbeddingCosineSimilarity.dotClamped(qv, _))
          if (s >= alpha) hits += ((t, s))
        }
        hits.result().sortBy { case (t, s) => (-s, t) }
    }

  test("the row-chunked embedding probe equals a sequential single-range scan") {
    val rng = new Random(25)
    val emb = clusteredEmbeddings(rng, 40, 6, dim = 5)
    val withVec = emb.keys.toArray.sorted
    // Ties: two tokens with the vector of a third.
    val tied = emb + ("tie1" -> emb(withVec(0))) + ("tie2" -> emb(withVec(0)))
    val simFn = new EmbeddingCosineSimilarity(tied)
    val bare = Array("bareA", "bareB")
    val sizes = Seq(0, 1, 2, 3, 7, withVec.length + 2)
    for (rows <- sizes) {
      // `rows` vector rows, the tied tokens among them once there are three,
      // interleaved with tokens without a vector.
      val vectored = if (rows >= 3) Array("tie1", "tie2") ++ withVec.take(rows - 2) else withVec.take(rows)
      val vocab = (vectored.take(1) ++ bare ++ vectored.drop(1)).sortBy(_.reverse)
      assert(vocab.count(simFn.vectors.contains) == rows)
      val idx = new BruteForceSimilarityIndex(vocab, simFn)
      // Every vocabulary token (up to 12), with a vector and without, and
      // tokens outside the vocabulary, with a vector and without.
      val queries = vocab.take(12) ++ Array(withVec.last, "ghost")
      for (alpha <- Seq(0.0, 0.3, 0.8, 0.95)) {
        val got = idx.neighborsAll(queries, alpha).map(_.toSeq).toSeq
        assert(got == queries.toSeq.map(sequentialScan(vocab, simFn, _, alpha)), s"rows=$rows alpha=$alpha")
        if (rows >= 3) assert(got.exists(l => l.map(_._2).distinct.length < l.length), "no tie")
      }
    }
  }

  test("the q-gram and generic token-chunked probes equal their per-token neighbors") {
    val j = new JaccardQGramSimilarity(3)
    val rng = new Random(26)
    val vocab = Seq.fill(120)(rng.alphanumeric.take(3 + rng.nextInt(6)).mkString).distinct.toArray
    // More tokens than cores, a repeated token and tokens outside the vocabulary.
    val queries = vocab.take(30) ++ Array(vocab(3), "ghost", "blain")
    for (idx <- Seq(new QGramPrefixIndex(vocab, j), new BruteForceSimilarityIndex(vocab, j));
         alpha <- Seq(0.3, 0.5, 0.8)) {
      val got = idx.neighborsAll(queries, alpha).map(_.toSeq).toSeq
      assert(got == queries.toSeq.map(idx.neighbors(_, alpha).toSeq), s"$idx alpha=$alpha")
    }
  }

  test("the default neighborsAll calls neighbors once per token, in query order, on the calling thread") {
    val calls = scala.collection.mutable.ArrayBuffer.empty[(String, Thread)]
    val idx = new SimilarityIndex {
      def neighbors(q: String, alpha: Double): Array[(String, Double)] = {
        calls += ((q, Thread.currentThread))
        Array((q, 1.0))
      }
    }
    val qs = Array("c", "a", "b", "a")
    assert(idx.neighborsAll(qs, 0.5).map(_.head._1).toSeq == qs.toSeq)
    assert(calls.toSeq == qs.toSeq.map((_, Thread.currentThread)))
  }

  test("a similarity outside [0, 1] or with sim(x, x) != 1 is rejected, naming the pair") {
    def sim(f: (String, String) => Double): TokenSimilarity = new TokenSimilarity {
      def sim(a: String, b: String): Double = f(a, b)
    }
    val vocab = Array("a", "b", "c")
    val broken = Seq(
      sim((a, b) => if (a == b) 1.0 else if (Set(a, b) == Set("a", "b")) 1.5 else 0.0) ->
        "sim(a, b) = 1.5 is not in [0, 1]",
      sim((a, b) => if (a == b) 1.0 else if (Set(a, b) == Set("a", "b")) Double.NaN else 0.0) ->
        "sim(a, b) = NaN is not in [0, 1]",
      sim((a, b) => if (a == b) 0.9 else 0.0) -> "sim(a, a) = 0.9, but sim(x, x) must be 1")
    for ((f, message) <- broken) {
      val idx = new BruteForceSimilarityIndex(vocab, f)
      val e = intercept[IllegalArgumentException](idx.neighbors("a", 0.5))
      assert(e.getMessage.contains(message))
      // Unchecked, 1.5 would let SO exceed min(|Q|, |C|).
      val repo = new SetCollection(IndexedSeq(SetRecord(1L, vocab)))
      intercept[IllegalArgumentException](
        new KoiosEngine(repo, new BruteForceSimilarityIndex(repo.vocabulary, f))
          .search(Seq("a"), KoiosParams(1, 0.5)))
    }
  }

  test("a precomputed table with a value outside [0, 1] is rejected at construction, naming the pair") {
    val good = Array(("a", 1.0), ("b", 0.8))
    val broken = Seq(
      Map("a" -> good, "q" -> Array(("b", 1.5))) -> "sim(q, b) = 1.5 is not in [0, 1]",
      Map("a" -> Array(("a", 1.0), ("c", Double.NaN))) -> "sim(a, c) = NaN is not in [0, 1]",
      Map("a" -> Array(("c", -0.1))) -> "sim(a, c) = -0.1 is not in [0, 1]",
      Map("a" -> Array(("c", Double.PositiveInfinity))) -> "sim(a, c) = Infinity is not in [0, 1]")
    for ((table, message) <- broken) {
      val e = intercept[IllegalArgumentException](new PrecomputedSimilarityIndex(table))
      assert(e.getMessage.contains(message))
    }
    // The bounds 0 and 1 themselves keep the contract.
    val ok = new PrecomputedSimilarityIndex(Map("a" -> Array(("a", 1.0), ("c", 0.0))))
    assert(ok.neighbors("a", 0.5).toSeq == Seq(("a", 1.0)))
  }
}
