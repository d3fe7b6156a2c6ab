package repro.dist

import repro.SparkSpec
import repro.core._
import repro.data.{SemanticData, SemanticDataset}
import repro.harness.PartitionedEngines
import scala.util.Random

/** The Spark executor against the thread pool on the same engines (the same
  * top-k and the same counts), and against the brute-force reference.
  */
class KoiosSparkSpec extends SparkSpec {

  private def withoutTimes(s: SearchStats): SearchStats =
    s.copy(probeMs = 0, refinementMs = 0, postprocMs = 0)

  private def enginesOver(records: IndexedSeq[SetRecord], vectors: Map[String, Array[Float]],
                          partitions: Int, simOverride: Option[TokenSimilarity] = None) =
    new PartitionedEngines(SemanticDataset(SemanticData.tinyProfile, records.toVector, vectors),
      partitions, simOverride = simOverride)

  /** Spark's answer to each query, after asserting that the pool's answer on
    * the same engines is `==` in top-k and in every count.
    */
  private def sparkEqualsPool(eng: PartitionedEngines, queries: Seq[Seq[String]],
                              params: KoiosParams): Seq[(Seq[ScoredSet], SearchStats)] = {
    val onSpark = new KoiosSpark(spark, eng)
    queries.map { q =>
      val (topk, stats, _) = onSpark.topK(q, params)
      val (poolTopk, poolStats, _) = eng.runKoios(q, params)
      assert(topk == poolTopk, s"query $q")
      assert(withoutTimes(stats) == withoutTimes(poolStats), s"query $q")
      (topk, stats)
    }
  }

  /** Corpus, random and repeated-token queries on a random cosine fixture,
    * through Spark and the pool at `partitions`, each answer exact. The
    * tests below run it at p ∈ {1, 3, 4, 8}.
    */
  private def check(seed: Int, partitions: Int, k: Int, alpha: Double): Unit = {
    val rng = new Random(seed)
    val f = TestData.fixture(rng, nSets = 50)
    val queries = Seq(TestData.corpusQuery(rng, f), TestData.randomQuery(rng, f),
      TestData.withDuplicate(TestData.randomQuery(rng, f))).map(_.toSeq)
    val eng = enginesOver(f.records, f.simFn.vectors, partitions)
    try {
      val answers = sparkEqualsPool(eng, queries, KoiosParams(k, alpha))
      for ((q, (topk, stats)) <- queries.zip(answers)) {
        TestData.assertValidTopK(topk, f, q, alpha, k)
        assert(stats.candidates >= topk.length)
      }
    } finally eng.shutdown()
  }

  test("distributed Koios equals brute force (3 partitions)") {
    check(seed = 130, partitions = 3, k = 5, alpha = 0.7)
  }

  test("distributed Koios equals brute force (1 partition)") {
    check(seed = 131, partitions = 1, k = 3, alpha = 0.8)
  }

  test("distributed Koios equals brute force (more partitions than needed)") {
    check(seed = 132, partitions = 8, k = 2, alpha = 0.6)
  }

  test("distributed Koios across random workloads") {
    for (seed <- 133 to 138)
      check(seed, partitions = 4, k = 1 + seed % 5, alpha = Seq(0.6, 0.7, 0.8)(seed % 3))
  }

  test("3-gram Jaccard, p = 3: Spark probes the prefix index and equals the pool") {
    val tiny = SemanticData.generate(SemanticData.tinyProfile)
    val jaccard = new JaccardQGramSimilarity(3)
    val eng = enginesOver(tiny.sets, tiny.embeddings, 3, Some(jaccard))
    try {
      val rng = new Random(145)
      val queries = Seq.fill(4)(tiny.sets(rng.nextInt(tiny.sets.length)).tokens.toSeq)
      for ((q, (topk, _)) <- queries.zip(sparkEqualsPool(eng, queries, KoiosParams(5, 0.5)))) {
        val ref = Reference.topK(tiny.sets, q, jaccard, 0.5, 5)
        assert(topk.map(_.score).zip(ref.map(_.score)).forall { case (g, r) => math.abs(g - r) < 1e-9 })
        assert(topk.length == ref.length)
      }
    } finally eng.shutdown()
  }

  test("distributed stats aggregate counts over partitions") {
    val rng = new Random(140)
    val f = TestData.fixture(rng, nSets = 60)
    val query = TestData.corpusQuery(rng, f).toSeq
    val eng = enginesOver(f.records, f.simFn.vectors, 4)
    try {
      val (_, stats, _) = new KoiosSpark(spark, eng).topK(query, KoiosParams(3, 0.7))
      val nonZero = Reference.allScores(f.records, query, f.simFn, 0.7).length
      assert(stats.candidates == nonZero,
        s"partition-summed candidates ${stats.candidates} != $nonZero")
      assert(stats.candidates == stats.iubPruned + stats.survivors)
    } finally eng.shutdown()
  }

  test("distributed Koios matches a repeated row token once") {
    val simFn = new EmbeddingCosineSimilarity(Map(
      "x" -> Array(1f, 0f), "x2" -> Array(1f, 0.1f), "w" -> Array(1f, 0.05f)))
    val records = IndexedSeq(SetRecord(0L, Seq("w", "w")), SetRecord(1L, Seq("v")))
    val eng = enginesOver(records, simFn.vectors, 2)
    try {
      val (topk, _) = sparkEqualsPool(eng, Seq(Seq("x", "x2")), KoiosParams(1, 0.8)).head
      val trueSo = math.max(simFn.sim("x", "w"), simFn.sim("x2", "w"))
      assert(topk.map(_.id) == Seq(0L))
      assert(math.abs(topk.head.score - trueSo) < 1e-9, s"score ${topk.head.score} != $trueSo")
    } finally eng.shutdown()
  }
}
