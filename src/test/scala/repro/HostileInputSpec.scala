package repro

import scala.util.Random

import repro.core._
import repro.data.{SemanticDataset, TestProfiles}
import repro.dist.KoiosSpark
import repro.fuzzy.SilkMothLite
import repro.harness.PartitionedEngines

/** Hostile inputs through every entry point — `KoiosEngine.search`,
  * `PartitionedEngines.run`, `KoiosSpark.topK` and `SilkMothLite` — against
  * `Reference.topK` on the distinct query tokens, compared as score
  * multisets with the exactness tolerance of the other suites.
  */
class HostileInputSpec extends SparkSpec {

  private val Tol = 1e-9

  /** Every entry point's top-k for `query` over `records`. */
  private def answers(records: IndexedSeq[SetRecord], simFn: EmbeddingCosineSimilarity,
                      query: Seq[String], k: Int, alpha: Double,
                      partitions: Int): Seq[(String, Seq[ScoredSet])] = {
    val params = KoiosParams(k, alpha)
    val repo = new SetCollection(records)
    val single = new KoiosEngine(repo, new BruteForceSimilarityIndex(repo.vocabulary, simFn))
    val ds = SemanticDataset(TestProfiles.tiny, records.toVector, simFn.vectors)
    val engines = new PartitionedEngines(ds, partitions)
    try {
      val theta = Reference.thetaKStar(records, query, simFn, alpha, k)
      Seq(
        "KoiosEngine.search" -> single.search(query, params).topk,
        s"PartitionedEngines.run (p = $partitions)" -> engines.runKoios(query, params)._1,
        s"KoiosSpark.topK (p = $partitions)" -> new KoiosSpark(spark, engines).topK(query, params)._1,
        "SilkMothLite.topK" ->
          new SilkMothLite(repo, simFn, alpha, syntactic = false).topK(query, k, theta))
    } finally engines.shutdown()
  }

  private def assertAllExact(records: IndexedSeq[SetRecord], simFn: EmbeddingCosineSimilarity,
                             query: Seq[String], k: Int, alpha: Double,
                             partitions: Int): Seq[ScoredSet] = {
    val ref = Reference.topK(records, query, simFn, alpha, k)
    for ((entry, got) <- answers(records, simFn, query, k, alpha, partitions)) {
      assert(got.length == ref.length, s"$entry: ${got.length} results, reference ${ref.length}")
      got.map(_.score).zip(ref.map(_.score)).zipWithIndex.foreach { case ((g, r), i) =>
        assert(math.abs(g - r) < Tol, s"$entry rank $i: score $g != reference $r")
      }
    }
    ref
  }

  test("an empty query returns nothing from every entry point") {
    val f = TestData.fixture(new Random(170))
    assert(assertAllExact(f.records, f.simFn, Seq.empty, k = 3, alpha = 0.7, partitions = 3).isEmpty)
  }

  test("a query of tokens in no set and without a vector returns nothing") {
    val f = TestData.fixture(new Random(171))
    val query = Seq("zz-none-1", "zz-none-2", "zz-none-1")
    assert(assertAllExact(f.records, f.simFn, query, k = 3, alpha = 0.5, partitions = 3).isEmpty)
  }

  test("scores tied exactly at θ across partitions") {
    val rng = new Random(172)
    for (trial <- 1 to 4) {
      val f = TestData.fixture(rng, nSets = 30)
      // Copies of one set score bit-identically; k cuts through them.
      val copied = f.records(rng.nextInt(f.records.length)).tokens
      val records = f.records ++ (1 to 6).map(i => SetRecord(1000L + i, copied))
      val query = (copied.take(3) ++ TestData.randomQuery(rng, f)).toSeq
      val alpha = 0.7
      val scores = Reference.allScores(records, query, f.simFn, alpha)
      val copyScore = Matching.semanticOverlapDirect(query.distinct.toArray, copied, f.simFn, alpha)
      val k = scores.indexWhere(_.score == copyScore) + 3
      val ref = assertAllExact(records, f.simFn, query, k, alpha, partitions = 3)
      assert(ref.last.score == copyScore && scores(k).score == copyScore,
        s"trial $trial: the copies must tie at θ_k*")
    }
  }

  test("more partitions than sets: empty partitions return nothing") {
    val rng = new Random(173)
    val f = TestData.fixture(rng, nSets = 3)
    for (query <- Seq(TestData.corpusQuery(rng, f).toSeq, TestData.randomQuery(rng, f).toSeq))
      assertAllExact(f.records, f.simFn, query, k = 2, alpha = 0.6, partitions = 8)
  }

  test("every entry point normalises a raw query the same way") {
    val rng = new Random(174)
    for (_ <- 1 to 3) {
      val f = TestData.fixture(rng, nSets = 40)
      val q = TestData.corpusQuery(rng, f).toSeq
      // Repeated tokens, a token without a vector, a token in no set.
      val raw = q ++ q.take(2) ++ Seq("zz-none", f.vocab(6), f.vocab(6)) ++ q.reverse
      val ref = assertAllExact(f.records, f.simFn, raw, k = 4, alpha = 0.7, partitions = 3)
      assert(ref == Reference.topK(f.records, raw.distinct, f.simFn, 0.7, 4))
    }
  }
}
