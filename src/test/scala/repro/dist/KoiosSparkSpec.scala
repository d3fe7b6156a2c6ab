package repro.dist

import repro.SparkSpec
import repro.core._
import scala.util.Random

/** Exactness of the distributed engine against the brute-force reference. */
class KoiosSparkSpec extends SparkSpec {

  private def check(seed: Int, partitions: Int, k: Int, alpha: Double,
                    corpusQuery: Boolean): Unit = {
    val rng = new Random(seed)
    val f = TestData.fixture(rng, nSets = 50)
    val query =
      if (corpusQuery) TestData.corpusQuery(rng, f) else TestData.randomQuery(rng, f)
    val setsDf = SetStore.toDF(spark, f.records)
    val (topk, stats) = KoiosSpark.topK(
      spark, setsDf, query.toSeq, f.simFn, KoiosParams(k, alpha), partitions)
    TestData.assertValidTopK(topk, f, query.toSeq, alpha, k)
    assert(stats.candidates >= topk.length)
  }

  test("distributed Koios equals brute force (3 partitions)") {
    check(seed = 130, partitions = 3, k = 5, alpha = 0.7, corpusQuery = true)
  }

  test("distributed Koios equals brute force (1 partition)") {
    check(seed = 131, partitions = 1, k = 3, alpha = 0.8, corpusQuery = false)
  }

  test("distributed Koios equals brute force (more partitions than needed)") {
    check(seed = 132, partitions = 8, k = 2, alpha = 0.6, corpusQuery = true)
  }

  test("distributed Koios across random workloads") {
    for (seed <- 133 to 138)
      check(seed, partitions = 4, k = 1 + seed % 5, alpha = Seq(0.6, 0.7, 0.8)(seed % 3),
        corpusQuery = seed % 2 == 0)
  }

  test("distributed stats aggregate counts over partitions") {
    val rng = new Random(140)
    val f = TestData.fixture(rng, nSets = 60)
    val query = TestData.corpusQuery(rng, f)
    val setsDf = SetStore.toDF(spark, f.records)
    val (_, stats) = KoiosSpark.topK(spark, setsDf, query.toSeq, f.simFn,
      KoiosParams(3, 0.7), 4)
    val nonZero = Reference.allScores(f.records, query.toSeq, f.simFn, 0.7).length
    assert(stats.candidates == nonZero,
      s"partition-summed candidates ${stats.candidates} != $nonZero")
    assert(stats.candidates == stats.iubPruned + stats.survivors)
  }

  test("collectSimIndex reproduces the brute-force token stream") {
    val rng = new Random(144)
    val f = TestData.fixture(rng, nSets = 30)
    val query = TestData.randomQuery(rng, f, maxLen = 5)
    val alpha = 0.6
    val setsDf = SetStore.toDF(spark, f.records)
    val pre = KoiosSpark.collectSimIndex(
      TokenSimJoin.simTable(setsDf, query, f.simFn, alpha), query)
    val coll = new SetCollection(f.records)
    val brute = new BruteForceSimilarityIndex(coll.vocabulary, f.simFn)
    for (q <- query) {
      val a = pre.neighbors(q, alpha).toSeq
      val b = brute.neighbors(q, alpha).toSeq
      assert(a.map(_._1).sorted == b.map(_._1).sorted, s"neighbor sets differ for $q")
      val bMap = b.toMap
      a.foreach { case (t, s) => assert(math.abs(s - bMap(t)) < 1e-9) }
    }
  }

  test("distributed Koios matches a repeated row token once") {
    import spark.implicits._
    val simFn = new EmbeddingCosineSimilarity(Map(
      "x" -> Array(1f, 0f), "x2" -> Array(1f, 0.1f), "w" -> Array(1f, 0.05f)))
    val setsDf = Seq(SetRow(0L, Seq("w", "w")), SetRow(1L, Seq("v"))).toDF()
    val (topk, _) = KoiosSpark.topK(spark, setsDf, Seq("x", "x2"), simFn, KoiosParams(1, 0.8), 2)
    val trueSo = math.max(simFn.sim("x", "w"), simFn.sim("x2", "w"))
    assert(topk.map(_.id) == Seq(0L))
    assert(math.abs(topk.head.score - trueSo) < 1e-9, s"score ${topk.head.score} != $trueSo")
    assert(SetStore.fromDF(setsDf).head.tokens.toSeq == Seq("w"))
  }
}
