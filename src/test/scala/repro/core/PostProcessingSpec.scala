package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Focused tests of Algorithm 2: the No-EM filter (Lemma 7), early
  * termination (Lemma 8) and finalization, beyond the end-to-end exactness
  * of KoiosExactnessSpec.
  */
class PostProcessingSpec extends AnyFunSuite {

  private def runBoth(f: TestData.Fixture, query: Array[String], params: KoiosParams)
      : (RefinementOutput, PostProcessingOutput) = {
    val coll = new SetCollection(f.records)
    val idx = new BruteForceSimilarityIndex(coll.vocabulary, f.simFn)
    val stream = new TokenStream(query, idx, params.alpha)
    val ref = Refinement.run(coll.records, coll.inverted, stream, query, params, 0L)
    val post = PostProcessing.run(coll.records, ref, query, params, 0L)
    (ref, post)
  }

  test("every post-processing result is a true top-k member") {
    val rng = new Random(100)
    for (_ <- 1 to 30) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val params = KoiosParams(4, 0.7)
      val (_, post) = runBoth(f, query, params)
      val thetaStar = Reference.thetaKStar(f.records, query.toSeq, f.simFn, params.alpha, params.k)
      post.results.foreach { r =>
        assert(r.score >= thetaStar - 1e-9)
      }
    }
  }

  test("filters are actually exercised across random workloads") {
    val rng = new Random(101)
    var noEmTotal = 0
    var earlyTotal = 0
    var emTotal = 0
    for (_ <- 1 to 60) {
      val f = TestData.fixture(rng, nSets = 80)
      val query = TestData.corpusQuery(rng, f)
      val (_, post) = runBoth(f, query, KoiosParams(3, 0.6))
      noEmTotal += post.noEm
      earlyTotal += post.emEarlyTerminated
      emTotal += post.emComputed
    }
    assert(noEmTotal > 0, "No-EM filter never fired across 60 workloads")
    assert(emTotal > 0, "no exact matchings at all — suspicious")
    // Early termination needs survivors whose matching dips below θ_lb;
    // it is workload-dependent, so only require global activity.
    assert(noEmTotal + earlyTotal + emTotal > 0)
  }

  test("results count never exceeds k") {
    val rng = new Random(102)
    for (_ <- 1 to 20) {
      val f = TestData.fixture(rng)
      val query = TestData.randomQuery(rng, f)
      val k = 1 + rng.nextInt(4)
      val (_, post) = runBoth(f, query, KoiosParams(k, 0.7))
      assert(post.results.length <= k)
    }
  }

  test("finalizeScores attaches exact scores to No-EM-accepted results") {
    val rng = new Random(103)
    for (_ <- 1 to 20) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val (_, post) = runBoth(f, query, KoiosParams(3, 0.7))
      val byId = f.records.map(r => r.id -> r).toMap
      post.results.foreach { r =>
        val so = Matching.semanticOverlapDirect(query.distinct, byId(r.id).tokens, f.simFn, 0.7)
        assert(math.abs(r.score - so) < 1e-9)
      }
    }
  }

  test("early termination never removes a true top-k member") {
    val rng = new Random(104)
    for (_ <- 1 to 30) {
      val f = TestData.fixture(rng, nSets = 60)
      val query = TestData.corpusQuery(rng, f)
      val params = KoiosParams(2, 0.6)
      val (_, post) = runBoth(f, query, params)
      val ref = Reference.topK(f.records, query.toSeq, f.simFn, params.alpha, params.k)
      assert(post.results.length == ref.length)
      post.results.zip(ref).foreach { case (g, r) =>
        assert(math.abs(g.score - r.score) < 1e-9)
      }
    }
  }

  test("no survivors yields empty results") {
    val f = TestData.Fixture(
      IndexedSeq(SetRecord(0L, Array("x"))),
      new EmbeddingCosineSimilarity(Map.empty),
      Array("x"))
    val (ref, post) = runBoth(f, Array("unrelated"), KoiosParams(3, 0.9))
    assert(ref.survivors.isEmpty)
    assert(post.results.isEmpty)
  }

  test("a timed-out query stops inside the kernel, also in finalize, within 100 ms") {
    // |Q| = 1500 on the paper's full matrix: each matching is 1500 × 1500,
    // about n³ steps of Kuhn–Munkres although each set has at most 30 edges.
    val query = Array.tabulate(1500)(i => s"q$i")
    val coll = new SetCollection(IndexedSeq(
      SetRecord(0L, query.slice(0, 30)),
      SetRecord(1L, query.slice(30, 50) ++ Seq("x1", "x2")),
      SetRecord(2L, query.slice(50, 60))))
    val idx = new BruteForceSimilarityIndex(coll.vocabulary, ExactMatchSimilarity)
    val params = KoiosParams(10, 0.8, timeoutMs = 200L)
    def timed(engine: KoiosEngine): (SearchResult, Double) = {
      val t0 = System.nanoTime()
      val res = engine.search(query.toSeq, params)
      (res, (System.nanoTime() - t0) / 1e6 - params.timeoutMs)
    }
    // Koios accepts all three sets by No-EM (k > 3); the first finalizing
    // matching is cut short, and every result keeps its refinement lb, which
    // exact-match edges make tight.
    val (koios, koiosOver) = timed(new KoiosEngine(coll, idx))
    assert(koios.stats.timedOut)
    assert(koiosOver <= 100.0, s"returned $koiosOver ms after the deadline")
    assert(koios.stats.finalizeEms == 0 && koios.stats.emComputed == 0)
    assert(koios.topk == Seq(ScoredSet(0L, 30.0), ScoredSet(1L, 20.0), ScoredSet(2L, 10.0)))
    // The baseline's first matching is cut short and counted nowhere.
    val (base, baseOver) = timed(new BaselineEngine(coll, idx))
    assert(base.stats.timedOut)
    assert(baseOver <= 100.0, s"returned $baseOver ms after the deadline")
    assert(base.stats.emComputed == 0 && base.topk.isEmpty)
  }
}
