package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TokenStreamSpec extends AnyFunSuite {

  private def mkIndex(rng: Random, nTok: Int): (Array[String], EmbeddingCosineSimilarity) = {
    val emb = (0 until nTok).map { i =>
      s"t$i" -> Array.fill(6)(rng.nextGaussian().toFloat)
    }.toMap
    (emb.keys.toArray.sorted, new EmbeddingCosineSimilarity(emb))
  }

  test("stream is globally descending in similarity (§IV)") {
    val rng = new Random(30)
    val (vocab, simFn) = mkIndex(rng, 40)
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    val query = vocab.take(6)
    val stream = new TokenStream(query, idx, 0.2)
    val sims = stream.map(_.sim).toSeq
    assert(sims.nonEmpty)
    assert(sims == sims.sorted(Ordering[Double].reverse))
  }

  test("stream emits exactly the pairs with sim ≥ α, each once") {
    val rng = new Random(31)
    val (vocab, simFn) = mkIndex(rng, 30)
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    val query = vocab.take(5)
    val alpha = 0.4
    val got = new TokenStream(query, idx, alpha).map(t => (t.qIdx, t.token)).toSeq
    assert(got.distinct.size == got.size, "duplicate (q, t) pair emitted")
    val expected = (for {
      qi <- query.indices
      t <- vocab
      if simFn.sim(query(qi), t) >= alpha
    } yield (qi, t)).toSet
    assert(got.toSet == expected)
  }

  test("emitted similarities match the similarity function") {
    val rng = new Random(32)
    val (vocab, simFn) = mkIndex(rng, 25)
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    val query = vocab.take(4)
    new TokenStream(query, idx, 0.3).foreach { t =>
      assert(math.abs(t.sim - simFn.sim(query(t.qIdx), t.token)) < 1e-9)
      assert(t.sim >= 0.3)
    }
  }

  test("identical query tokens arrive first with similarity 1") {
    val rng = new Random(33)
    val (vocab, simFn) = mkIndex(rng, 20)
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    val query = vocab.take(3)
    val stream = new TokenStream(query, idx, 0.5)
    val first3 = stream.take(3).toSeq
    assert(first3.forall(_.sim == 1.0))
    assert(first3.map(_.token).toSet == query.toSet)
  }

  test("high alpha empties the stream except exact matches") {
    val rng = new Random(34)
    val (vocab, simFn) = mkIndex(rng, 20)
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    val query = vocab.take(4)
    val tuples = new TokenStream(query, idx, 1.0).toSeq
    assert(tuples.forall(_.sim == 1.0))
    assert(tuples.map(_.token).toSet == query.toSet)
  }

  test("empty query yields empty stream") {
    val rng = new Random(35)
    val (vocab, simFn) = mkIndex(rng, 10)
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    assert(!new TokenStream(Array.empty, idx, 0.5).hasNext)
  }

  test("rejects duplicate query tokens") {
    val rng = new Random(36)
    val (vocab, simFn) = mkIndex(rng, 10)
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    assertThrows[IllegalArgumentException] {
      new TokenStream(Array("t1", "t1"), idx, 0.5)
    }
  }

  test("tuplesEmitted and bufferedPairs accounting") {
    val rng = new Random(37)
    val (vocab, simFn) = mkIndex(rng, 20)
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    val query = vocab.take(3)
    val stream = new TokenStream(query, idx, 0.3)
    val n = stream.size // counts the tuples by consuming the stream
    // Every buffered pair of the index's α-lists is emitted once.
    assert(n == idx.neighborsAll(query, 0.3).map(_.length).sum)
  }

  test("stream order is (−sim, query position, list position), ties included") {
    val rng = new Random(38)
    var ties = 0 // adjacent tuples tied on similarity across query positions
    for (trial <- 1 to 20; alpha <- Seq(0.5, 0.8, 0.95)) {
      // Noise 0: identical vectors within a cluster, similarities tied at 1.
      val f = TestData.fixture(rng, noise = 0.0)
      val index = new BruteForceSimilarityIndex(f.vocab, f.simFn)
      val query = (TestData.corpusQuery(rng, f) ++ TestData.randomQuery(rng, f)).distinct
      val want = (for {
        qi <- query.indices
        ((t, s), pos) <- index.neighbors(query(qi), alpha).zipWithIndex
      } yield (-s, qi, pos, t)).sorted.map { case (s, qi, _, t) => (qi, t, -s) }
      val got = new TokenStream(query, index, alpha).map(t => (t.qIdx, t.token, t.sim)).toSeq
      assert(got == want, s"trial $trial, alpha $alpha")
      ties += got.sliding(2).count {
        case Seq(a, b) => a._3 == b._3 && a._1 != b._1
        case _ => false
      }
    }
    assert(ties > 0, "no similarity tie across query positions")
  }
}
