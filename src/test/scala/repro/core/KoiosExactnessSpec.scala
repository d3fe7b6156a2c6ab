package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** End-to-end exactness of the full Koios engine against the brute-force
  * reference, across random repositories, queries, k and α — the central
  * correctness property (§VII-A).
  */
class KoiosExactnessSpec extends AnyFunSuite {

  private def engine(f: TestData.Fixture): KoiosEngine = {
    val coll = new SetCollection(f.records)
    new KoiosEngine(coll, new BruteForceSimilarityIndex(coll.vocabulary, f.simFn))
  }

  test("top-k equals brute force over 60 random instances") {
    val rng = new Random(70)
    for (trial <- 1 to 60) {
      val f = TestData.fixture(rng)
      val query = if (trial % 2 == 0) TestData.randomQuery(rng, f) else TestData.corpusQuery(rng, f)
      val k = Seq(1, 2, 3, 5, 10)(rng.nextInt(5))
      val alpha = Seq(0.5, 0.7, 0.8, 0.9)(rng.nextInt(4))
      val res = engine(f).search(query.toSeq, KoiosParams(k, alpha))
      TestData.assertValidTopK(res.topk, f, query.toSeq, alpha, k)
    }
  }

  test("reducedGraphs optimization returns identical results to the paper kernel") {
    val rng = new Random(81)
    for (_ <- 1 to 20) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val e = engine(f)
      val paper = e.search(query.toSeq, KoiosParams(5, 0.7))
      val reduced = e.search(query.toSeq, KoiosParams(5, 0.7, reducedGraphs = true))
      assert(paper.topk.map(_.score).zip(reduced.topk.map(_.score))
        .forall { case (a, b) => math.abs(a - b) < 1e-9 })
      assert(paper.topk.length == reduced.topk.length)
    }
  }

  test("results are sorted descending with exact scores") {
    val rng = new Random(71)
    val f = TestData.fixture(rng)
    val query = TestData.corpusQuery(rng, f)
    val res = engine(f).search(query.toSeq, KoiosParams(5, 0.7))
    val scores = res.topk.map(_.score)
    assert(scores == scores.sorted(Ordering[Double].reverse))
  }

  test("query from the corpus ranks itself first with SO = |Q|") {
    val rng = new Random(72)
    for (_ <- 1 to 10) {
      val f = TestData.fixture(rng)
      val qi = rng.nextInt(f.records.length)
      val query = f.records(qi).tokens
      val res = engine(f).search(query.toSeq, KoiosParams(3, 0.8))
      assert(res.topk.head.score >= query.length - 1e-9)
    }
  }

  test("k larger than the number of non-zero sets returns them all") {
    val rng = new Random(73)
    val f = TestData.fixture(rng, nSets = 10)
    val query = TestData.randomQuery(rng, f, maxLen = 3)
    val nonZero = Reference.allScores(f.records, query.toSeq, f.simFn, 0.9).length
    val res = engine(f).search(query.toSeq, KoiosParams(25, 0.9))
    assert(res.topk.length == math.min(25, nonZero))
  }

  test("all returned sets have positive semantic overlap (Def. 2 cond. 1)") {
    val rng = new Random(74)
    for (_ <- 1 to 15) {
      val f = TestData.fixture(rng)
      val query = TestData.randomQuery(rng, f)
      val res = engine(f).search(query.toSeq, KoiosParams(10, 0.8))
      assert(res.topk.forall(_.score > 0.0))
    }
  }

  test("min returned score equals θ_k* when k results exist (Def. 2 cond. 2)") {
    val rng = new Random(75)
    for (_ <- 1 to 20) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val k = 3
      val thetaStar = Reference.thetaKStar(f.records, query.toSeq, f.simFn, 0.7, k)
      val res = engine(f).search(query.toSeq, KoiosParams(k, 0.7))
      if (res.topk.length == k)
        assert(math.abs(res.topk.last.score - thetaStar) < 1e-9)
    }
  }

  test("duplicate query tokens are deduplicated") {
    val rng = new Random(76)
    val f = TestData.fixture(rng)
    val query = TestData.randomQuery(rng, f, maxLen = 4)
    val res1 = engine(f).search(query.toSeq, KoiosParams(3, 0.7))
    val res2 = engine(f).search((query ++ query).toSeq, KoiosParams(3, 0.7))
    assert(res1.topk.map(_.score) == res2.topk.map(_.score))
  }

  test("a repeated set token is matched once") {
    // x and x2 are both α-similar to w; C = {w} arrives as Array(w, w).
    val simFn = new EmbeddingCosineSimilarity(Map(
      "x" -> Array(1f, 0f), "x2" -> Array(1f, 0.1f), "w" -> Array(1f, 0.05f)))
    val coll = new SetCollection(IndexedSeq(SetRecord(0L, Array("w", "w"))))
    val idx = new BruteForceSimilarityIndex(coll.vocabulary, simFn)
    val query = Seq("x", "x2")
    val trueSo = math.max(simFn.sim("x", "w"), simFn.sim("x2", "w")) // ≈ 1.0, not ≈ 2.0
    val params = KoiosParams(1, 0.8)
    for (engine <- Seq(new KoiosEngine(coll, idx), new BaselineEngine(coll, idx))) {
      val topk = engine.search(query, params).topk
      assert(topk.map(_.id) == Seq(0L))
      assert(math.abs(topk.head.score - trueSo) < 1e-9, s"score ${topk.head.score} != $trueSo")
    }
    assert(math.abs(Reference.topK(coll.records, query, simFn, 0.8, 1).head.score - trueSo) < 1e-9)
  }

  test("filter counters are consistent: survivors = noEm + early + em") {
    val rng = new Random(77)
    for (_ <- 1 to 25) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val res = engine(f).search(query.toSeq, KoiosParams(3, 0.7))
      val s = res.stats
      assert(s.candidates == s.iubPruned + s.survivors)
      assert(s.survivors == s.noEm + s.emEarlyTerminated + s.emComputed,
        s"survivors ${s.survivors} != ${s.noEm} + ${s.emEarlyTerminated} + ${s.emComputed}")
    }
  }

  test("stats timings and memory are populated") {
    val rng = new Random(79)
    val f = TestData.fixture(rng, nSets = 200)
    val query = TestData.corpusQuery(rng, f)
    val res = engine(f).search(query.toSeq, KoiosParams(3, 0.7))
    assert(res.stats.probeMs > 0.0)
    assert(res.stats.refinementMs >= 0.0)
    assert(res.stats.postprocMs >= 0.0)
    // Refinement's record-indexed arrays alone take a byte, two doubles and
    // two ints per record; with over 64 records no escape analysis removes them.
    assert(res.stats.memBytes >= 25L * f.records.length)
    assert(!res.stats.timedOut)
  }

  test("rejects invalid parameters") {
    assertThrows[IllegalArgumentException](KoiosParams(0, 0.8))
    assertThrows[IllegalArgumentException](KoiosParams(1, 0.0))
    assertThrows[IllegalArgumentException](KoiosParams(1, 1.5))
  }

  test("high alpha (exact-match regime) reduces to vanilla-overlap ranking") {
    val rng = new Random(80)
    for (_ <- 1 to 10) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val res = engine(f).search(query.toSeq, KoiosParams(3, 1.0))
      val qSet = query.toSet
      res.topk.foreach { g =>
        val rec = f.records.find(_.id == g.id).get
        val vanilla = rec.tokens.count(qSet.contains)
        assert(math.abs(g.score - vanilla) < 1e-9)
      }
    }
  }
}
