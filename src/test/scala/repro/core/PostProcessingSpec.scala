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

  /** Refinement of `query`, then verification with `helpers` helpers offered
    * every set (no size cut-off). Refinement runs anew for each call: the
    * verification raises the refinement's θ_lb list.
    */
  private def withHelpers(coll: SetCollection, idx: SimilarityIndex, query: Array[String],
                          params: KoiosParams, helpers: Int,
                          deadlineNanos: Long = 0L): PostProcessingOutput = {
    val stream = new TokenStream(query, idx, params.alpha)
    val ref = Refinement.run(coll.records, coll.inverted, stream, query, params, deadlineNanos)
    PostProcessing.run(coll.records, ref, query, params, deadlineNanos, helpers, minSize = 0)
  }

  test("with 0, 1 and 3 helpers: == results and every count, ties at θ, k past the survivors") {
    val rng = new Random(105)
    var cases = 0
    var helperRuns = 0
    for (trial <- 1 to 30) {
      val f = TestData.fixture(rng, nSets = 60, maxCard = 40, clusters = 30, oovEvery = 9)
      // Copies of one set score bit-identically: with k cutting through them
      // they tie at θ.
      val copied = f.records(rng.nextInt(f.records.length)).tokens
      val records = f.records ++ (1 to 4).map(i => SetRecord(1000L + i, copied))
      val coll = new SetCollection(records)
      val idx = new BruteForceSimilarityIndex(coll.vocabulary, f.simFn)
      val alpha = if (trial % 2 == 0) 0.6 else 0.8
      val queries = Seq(copied.take(6) ++ TestData.randomQuery(rng, f, maxLen = 30),
        TestData.corpusQuery(rng, f), Array("unrelated", "tokens")).map(_.distinct)
      for (query <- queries) {
        // k cuts through the copies, or exceeds the survivors.
        val copyScore = Matching.semanticOverlapDirect(query, copied, f.simFn, alpha)
        val tieK = Reference.allScores(records, query.toSeq, f.simFn, alpha)
          .indexWhere(_.score == copyScore) + 3
        for (k <- Seq(1, 10, tieK, 200); reduced <- Seq(false, true)) {
          val params = KoiosParams(k, alpha, reducedGraphs = reduced)
          val want = withHelpers(coll, idx, query, params, helpers = 0)
          assert(want.helperBytes == 0L)
          for (helpers <- Seq(1, 3)) {
            val got = withHelpers(coll, idx, query, params, helpers)
            assert(got.copy(helperBytes = 0L) == want, s"trial $trial, k = $k, $helpers helpers")
            if (got.helperBytes > 0) helperRuns += 1
          }
          cases += 1
        }
      }
    }
    assert(cases == 30 * 3 * 4 * 2)
    // A helper allocates whenever it completes a matching (the outcome it
    // hands over) or grows its scratch.
    assert(helperRuns > 0, "no helper ever ran a matching")
  }

  test("a helper's exception is rethrown to the caller") {
    val coll = new SetCollection(IndexedSeq(SetRecord(0L, Seq("a", "b"))))
    // An edge table too small for the index's token ids: a matching of
    // record 0 throws in the thread that builds its matrix.
    val broken = RefinementOutput(IndexedSeq(Survivor(0, 0.0, 2.0)), coll.inverted, new Edges(0),
      new TopKList(1), candidates = 1, iubPruned = 0, scanPruned = 0, streamTuples = 0L,
      timedOut = false)
    val spec = new Speculation(broken, qCount = 2, reduced = false, deadlineNanos = 0L,
      helpers = 1, theta0 = 0.0)
    val job = new Speculation.Job(0, 2.0, live = true)
    spec.offer(Array(job))
    // The caller claims nothing, so the helper runs the job; wait until it has.
    val until = System.nanoTime() + 10000000000L
    while (!job.done && System.nanoTime() < until) Thread.sleep(1)
    assert(job.done, "the helper did not run the job within 10 s")
    assertThrows[ArrayIndexOutOfBoundsException](spec.matching(0, job, 0.0))
    spec.close()
    assertThrows[ArrayIndexOutOfBoundsException](spec.helperBytes)
    // Through the verification: whichever thread throws, the caller does.
    assertThrows[ArrayIndexOutOfBoundsException](PostProcessing.run(coll.records, broken,
      Array("a", "b"), KoiosParams(1, 0.8), 0L, helpers = 3, minSize = 0))
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
    // The same verification with 0, 1 and 3 helpers, which all start on the
    // 1500 × 1500 matchings: the caller still returns within 100 ms.
    for (helpers <- Seq(0, 1, 3)) {
      val deadline = System.nanoTime() + params.timeoutMs * 1000000L
      val post = withHelpers(coll, idx, query, params, helpers, deadline)
      val overMs = (System.nanoTime() - deadline) / 1e6
      assert(post.timedOut)
      assert(overMs <= 100.0, s"$helpers helpers: returned $overMs ms after the deadline")
      assert(post.finalizeEms == 0 && post.emComputed == 0 && post.noEm == 3)
      assert(post.results == koios.topk)
    }
  }

  test("memBytes adds what the helpers allocate to the search's own thread") {
    assume(Workers.idle > 0, "no core for a helper")
    // |Q| = 1600, above every other matrix of the tests, so any helper that
    // starts a matching first grows its scratch to at least 8 · 1600² bytes.
    // The deadline cuts the matchings short.
    val n = 1600
    val query = Array.tabulate(n)(i => s"m$i")
    val coll = new SetCollection((0 until 3).map(i => SetRecord(i.toLong, query.slice(20 * i, 20 * i + 20))))
    val idx = new BruteForceSimilarityIndex(coll.vocabulary, ExactMatchSimilarity)
    var helperBytes = 0L
    val engine = new KoiosEngine(coll, idx) {
      override protected def verifyPhase(candidates: RefinementOutput, query: Array[String],
                                         params: KoiosParams, deadlineNanos: Long): PostProcessingOutput = {
        val post = super.verifyPhase(candidates, query, params, deadlineNanos)
        helperBytes = post.helperBytes
        post
      }
    }
    val allocated0 = Workers.allocatedBytes()
    val res = engine.search(query.toSeq, KoiosParams(10, 0.8, timeoutMs = 300L))
    val own = Workers.allocatedBytes() - allocated0
    assert(helperBytes >= 8L * n * n, s"helpers allocated $helperBytes bytes")
    // memBytes is the search's own allocation, at most `own`, plus the helpers'.
    assert(res.stats.memBytes - helperBytes <= own)
    assert(res.stats.memBytes - helperBytes >= own - 65536L)
  }
}
