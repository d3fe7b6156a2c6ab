package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{SemanticData, TestProfiles}
import scala.util.Random

class HarnessSpec extends AnyFunSuite {

  private lazy val tiny = SemanticData.generate(TestProfiles.tiny)
  private lazy val engines = new PartitionedEngines(tiny, partitions = 3)

  test("partitioned Koios equals the brute-force reference") {
    val simFn = new EmbeddingCosineSimilarity(tiny.embeddings)
    val rng = new Random(150)
    for (_ <- 1 to 8) {
      val q = tiny.sets(rng.nextInt(tiny.sets.length)).tokens
      val params = KoiosParams(5, 0.8)
      val (topk, _, _) = engines.runKoios(q.toSeq, params)
      val ref = Reference.topK(tiny.sets, q.toSeq, simFn, 0.8, 5)
      assert(topk.length == ref.length)
      topk.zip(ref).foreach { case (g, r) => assert(math.abs(g.score - r.score) < 1e-9) }
    }
  }

  test("partitioned Koios and partitioned baseline agree") {
    val rng = new Random(151)
    for (_ <- 1 to 5) {
      val q = tiny.sets(rng.nextInt(tiny.sets.length)).tokens
      val params = KoiosParams(5, 0.8)
      val (a, _, _) = engines.runKoios(q.toSeq, params)
      val (b, _, _) = engines.runBaseline(q.toSeq, params)
      assert(a.map(_.score).zip(b.map(_.score)).forall { case (x, y) => math.abs(x - y) < 1e-9 })
    }
  }

  test("partitions cover the corpus exactly once") {
    val ids = engines.parts.flatMap(_.records.map(_.id))
    assert(ids.sorted == tiny.sets.map(_.id).sorted)
  }

  test("merged stats: counts summed, times are maxima") {
    val q = tiny.sets.head.tokens
    val (_, stats, wallMs) = engines.runKoios(q.toSeq, KoiosParams(3, 0.8))
    assert(stats.candidates == stats.iubPruned + stats.survivors)
    assert(wallMs > 0)
    assert(stats.refinementMs >= 0)
    assert(stats.probeMs > 0) // the shared probe's wall time
    assert(stats.probeMs + stats.refinementMs + stats.postprocMs <= wallMs)
  }

  test("no helper is enlisted when p ≥ availableProcessors; at p = 1 one is") {
    assume(Workers.cores > 1, "one core: no helper at any p")
    // 120 distinct corpus tokens: every survivor's max(|Q|, |C|) is above the
    // helpers' size cut-off.
    val query = tiny.sets.iterator.flatMap(_.tokens).distinct.take(120).toSeq
    val params = KoiosParams(10, 0.8)
    def enlisted(p: Int): Long = {
      val eng = new PartitionedEngines(tiny, partitions = p)
      try {
        val before = Workers.enlisted
        val (_, stats, _) = eng.runKoios(query, params)
        assert(stats.survivors > 0)
        Workers.enlisted - before
      } finally eng.shutdown()
    }
    assert(enlisted(Workers.cores) == 0)
    assert(enlisted(Workers.cores + 3) == 0)
    assert(enlisted(1) > 0)
  }

  private lazy val cosine = new EmbeddingCosineSimilarity(tiny.embeddings)

  /** Queries that mix corpus tokens with tokens without a vector, tokens in
    * no partition (with and without a vector) and repeated tokens.
    */
  private def hostileQueries: Seq[Seq[String]] = {
    val vocab = tiny.sets.flatMap(_.tokens).toSet
    val bare = vocab.filterNot(cosine.vectors.contains).toSeq.sorted
    val vectorOnly = cosine.vectors.keySet.diff(vocab).toSeq.sorted.take(1)
    assert(bare.nonEmpty)
    val rng = new Random(152)
    (1 to 4).map { i =>
      val q = tiny.sets(rng.nextInt(tiny.sets.length)).tokens.toSeq
      q ++ bare.drop(i).take(2) ++ vectorOnly ++ Seq("no-such-token", "t00001_9") ++ q.take(3)
    }
  }

  /** Runs Koios through the shared probe and keeps, per partition, the view
    * it was given and its result.
    */
  private def viewsAndResults(eng: PartitionedEngines, query: Seq[String], params: KoiosParams)
      : IndexedSeq[(SimilarityIndex, SearchResult)] = {
    val seen = new java.util.concurrent.ConcurrentHashMap[Int, (SimilarityIndex, SearchResult)]()
    eng.run(query, params, (c, view) => q => {
      val r = new KoiosEngine(c, view).search(q, params)
      seen.put(eng.parts.indexWhere(_ eq c), (view, r))
      r
    })
    eng.parts.indices.map(seen.get)
  }

  private def withoutMeasurements(s: SearchStats): SearchStats =
    s.copy(probeMs = 0, refinementMs = 0, postprocMs = 0, memBytes = 0)

  for ((label, sim, alpha) <- Seq(
      ("cosine", None, 0.8),
      ("3-gram Jaccard", Some(new JaccardQGramSimilarity(3)), 0.5));
      p <- Seq(1, 3, 10)) {
    test(s"$label, p = $p: each partition's view of the shared probe is its own index, bit for bit") {
      val eng = new PartitionedEngines(tiny, p, simOverride = sim)
      try {
        val params = KoiosParams(5, alpha)
        var longest = 0
        for (query <- hostileQueries) {
          val seen = viewsAndResults(eng, query, params)
          eng.parts.zip(seen).foreach { case (part, (view, result)) =>
            val own = eng.similarity match {
              case j: JaccardQGramSimilarity => new QGramPrefixIndex(part.vocabulary, j)
              case f                         => new BruteForceSimilarityIndex(part.vocabulary, f)
            }
            for (q <- query) {
              val got = view.neighbors(q, alpha).toSeq
              assert(got == own.neighbors(q, alpha).toSeq, s"token $q")
              longest = math.max(longest, got.length)
            }
            val alone = new KoiosEngine(part, own).search(query, params)
            assert(result.topk == alone.topk)
            assert(withoutMeasurements(result.stats) == withoutMeasurements(alone.stats))
          }
        }
        assert(longest >= 2, "every neighbour list held at most the token itself")
      } finally eng.shutdown()
    }
  }

  for (p <- Seq(1, 3, 10))
    test(s"p = $p: the merged answer and every count equal the partitions searched on their own indexes") {
      val eng = new PartitionedEngines(tiny, p)
      try {
        val rng = new Random(154)
        val queries = hostileQueries ++ Seq.fill(4)(tiny.sets(rng.nextInt(tiny.sets.length)).tokens.toSeq)
        for (query <- queries) {
          val params = KoiosParams(5, 0.8)
          val (topk, stats, _) = eng.runKoios(query, params)
          val alone = SearchResult.merge(eng.parts.map { part =>
            new KoiosEngine(part, new BruteForceSimilarityIndex(part.vocabulary, eng.similarity))
              .search(query, params)
          }, params.k)
          assert(topk == alone.topk, s"query $query")
          assert(withoutMeasurements(stats) == withoutMeasurements(alone.stats), s"query $query")
        }
      } finally eng.shutdown()
    }

  test("p = 1: the shared probe runs on more than one thread") {
    assume(Runtime.getRuntime.availableProcessors > 1)
    val threads = java.util.concurrent.ConcurrentHashMap.newKeySet[Thread]()
    val until = System.nanoTime() + 10000000000L
    val recording = new TokenSimilarity {
      def sim(a: String, b: String): Double = {
        threads.add(Thread.currentThread)
        // Holds the first thread until a second one calls, so the outcome
        // does not depend on how fast idle threads wake.
        while (threads.size < 2 && System.nanoTime() < until) Thread.sleep(1)
        cosine.sim(a, b)
      }
    }
    val eng = new PartitionedEngines(tiny, 1, simOverride = Some(recording))
    try {
      val query = tiny.sets.maxBy(_.tokens.distinct.length).tokens.toSeq
      assert(query.distinct.length > 1)
      eng.runKoios(query, KoiosParams(3, 0.8))
      assert(threads.size > 1)
    } finally eng.shutdown()
  }

  /** Koios composed from its public layers, as the benchmark's traced engine
    * composes it: the same query normalisation and deadline, then
    * `new TokenStream`, `Refinement.run` and `PostProcessing.run`.
    */
  private def layered(part: SetCollection, index: SimilarityIndex, queryTokens: Seq[String],
                      params: KoiosParams): SearchResult = {
    val query = queryTokens.distinct.toArray
    val deadline =
      if (params.timeoutMs > 0) System.nanoTime() + params.timeoutMs * 1000000L else 0L
    val stream = new TokenStream(query, index, params.alpha)
    val ref = Refinement.run(part.records, part.inverted, stream, query, params, deadline)
    val post = PostProcessing.run(part.records, ref, query, params, deadline)
    SearchResult(post.results.take(params.k), SearchStats(
      candidates = ref.candidates,
      iubPruned = ref.iubPruned,
      survivors = ref.survivors.length,
      noEm = post.noEm,
      emEarlyTerminated = post.emEarlyTerminated,
      emComputed = post.emComputed,
      finalizeEms = post.finalizeEms,
      streamTuples = ref.streamTuples,
      thetaLbFinal = ref.topkLb.threshold,
      timedOut = ref.timedOut || post.timedOut))
  }

  /** The counts the benchmark's traced engine must reproduce. */
  private def counts(s: SearchStats): Seq[Any] =
    Seq(s.candidates, s.iubPruned, s.survivors, s.noEm, s.emEarlyTerminated, s.emComputed,
      s.finalizeEms, s.streamTuples, s.thetaLbFinal, s.timedOut)

  for (p <- Seq(1, 10))
    test(s"p = $p: Koios composed from its layers on each partition's view equals KoiosEngine.search") {
      val eng = new PartitionedEngines(tiny, p)
      try {
        val rng = new Random(153)
        val queries = hostileQueries ++ Seq.fill(4)(tiny.sets(rng.nextInt(tiny.sets.length)).tokens.toSeq)
        for (reduced <- Seq(false, true); query <- queries) {
          val params = BenchSuite.Params.copy(reducedGraphs = reduced)
          eng.parts.zip(viewsAndResults(eng, query, params)).foreach { case (part, (view, result)) =>
            val own = layered(part, view, query, params)
            assert(own.topk == result.topk, s"reduced = $reduced, query $query")
            assert(counts(own.stats) == counts(result.stats), s"reduced = $reduced, query $query")
          }
        }
      } finally eng.shutdown()
    }

  test("a partition's view answers only the tokens and α the run probed") {
    val q = tiny.sets.head.tokens.toSeq
    val (view, _) = viewsAndResults(engines, q, KoiosParams(3, 0.8)).head
    assert(view.neighbors(q.head, 0.8).nonEmpty)
    val token = intercept[IllegalArgumentException](view.neighbors("no-such-token", 0.8))
    assert(token.getMessage.contains("no-such-token"))
    val alpha = intercept[IllegalArgumentException](view.neighbors(q.head, 0.7))
    assert(alpha.getMessage.contains("0.7"))
  }

  test("a similarity that breaks its contract fails the query") {
    val broken = new TokenSimilarity {
      def sim(a: String, b: String): Double = if (a == b) 1.0 else 1.5
    }
    val eng = new PartitionedEngines(tiny, 3, simOverride = Some(broken))
    try {
      val e = intercept[IllegalArgumentException](
        eng.runKoios(tiny.sets.head.tokens.toSeq, KoiosParams(3, 0.8)))
      assert(e.getMessage.contains("= 1.5 is not in [0, 1]"))
    } finally eng.shutdown()
  }

  test("Agg averages exclude timed-out queries from time but counts them") {
    val ok = SearchStats(candidates = 10, survivors = 4, noEm = 4, refinementMs = 100)
    val bad = SearchStats(candidates = 99, timedOut = true, refinementMs = 9999)
    val agg = Agg.of(Seq((ok, 200.0), (bad, 60000.0)))
    assert(agg.queries == 2)
    assert(agg.timeouts == 1)
    assert(math.abs(agg.candidates - 10.0) < 1e-9)
    assert(math.abs(agg.responseSec - 0.2) < 1e-9)
  }

  test("Agg refine time is the probe plus the candidate phase") {
    val s = SearchStats(probeMs = 300, refinementMs = 200, postprocMs = 100)
    val agg = Agg.of(Seq((s, 700.0)))
    assert(math.abs(agg.refinementSec - 0.5) < 1e-12)
    assert(math.abs(agg.postprocSec - 0.1) < 1e-12)
  }

  test("Agg percentage helpers") {
    val s = SearchStats(candidates = 100, iubPruned = 90, survivors = 10,
      noEm = 5, emEarlyTerminated = 2, emComputed = 3)
    val agg = Agg.of(Seq((s, 10.0)))
    assert(math.abs(agg.iubPct - 90.0) < 1e-9)
    assert(math.abs(agg.noEmPct - 50.0) < 1e-9)
    assert(math.abs(agg.emEarlyPct - 20.0) < 1e-9)
  }

  test("Report writes bench_results files") {
    Report.emit("selftest", Seq("hello", "world"))
    val f = new java.io.File("bench_results/selftest.txt")
    assert(f.exists)
    val src = scala.io.Source.fromFile(f)
    try assert(src.mkString == "hello\nworld\n") finally src.close()
    f.delete()
  }
}
