package repro.core

import scala.util.Random

/** Randomized small fixtures for exactness tests: a clustered vocabulary
  * (synonym-like high-cosine groups + OOV tokens) and random set
  * repositories, small enough for the brute-force reference.
  */
object TestData {

  final case class Fixture(
      records: IndexedSeq[SetRecord],
      simFn: EmbeddingCosineSimilarity,
      vocab: Array[String])

  /** Clustered vocabulary: `clusters`×`perCluster` tokens, `oovEvery`-th
    * token has no vector.
    */
  def fixture(rng: Random,
              nSets: Int = 40,
              clusters: Int = 12,
              perCluster: Int = 3,
              maxCard: Int = 10,
              oovEvery: Int = 7,
              dim: Int = 8,
              noise: Double = 0.25): Fixture = {
    val emb = Map.newBuilder[String, Array[Float]]
    val vocab = Array.newBuilder[String]
    var n = 0
    for (c <- 0 until clusters) {
      val centroid = Array.fill(dim)(rng.nextGaussian())
      for (j <- 0 until perCluster) {
        val t = s"c${c}_$j"
        vocab += t
        n += 1
        if (n % oovEvery != 0)
          emb += t -> centroid.map(x => (x + rng.nextGaussian() * noise).toFloat)
      }
    }
    val v = vocab.result()
    val records = IndexedSeq.tabulate(nSets) { i =>
      val card = 1 + rng.nextInt(maxCard)
      val tokens = rng.shuffle(v.toSeq).take(card)
      // Every fifth record arrives with a repeated token, as raw input may.
      SetRecord(i.toLong, if (i % 5 == 0) tokens :+ tokens.head else tokens)
    }
    Fixture(records, new EmbeddingCosineSimilarity(emb.result()), v)
  }

  def randomQuery(rng: Random, f: Fixture, maxLen: Int = 8): Array[String] =
    rng.shuffle(f.vocab.toSeq).take(1 + rng.nextInt(maxLen)).toArray

  /** `query` with its first token repeated, as raw input may arrive. */
  def withDuplicate(query: Array[String]): Array[String] = query :+ query.head

  /** A query drawn from the repository itself (the benchmarks' protocol). */
  def corpusQuery(rng: Random, f: Fixture): Array[String] =
    f.records(rng.nextInt(f.records.length)).tokens

  /** Asserts `got` is a valid top-k answer: same score multiset as the
    * reference (ties may swap ids) and every reported score is the true SO
    * of the reported id.
    */
  def assertValidTopK(got: Seq[ScoredSet], f: Fixture, query: Seq[String],
                      alpha: Double, k: Int): Unit = {
    val ref = Reference.topK(f.records, query, f.simFn, alpha, k)
    assert(got.length == ref.length,
      s"result size ${got.length} != reference ${ref.length}")
    got.zip(ref).zipWithIndex.foreach { case ((g, r), i) =>
      assert(math.abs(g.score - r.score) < 1e-9,
        s"rank $i: score ${g.score} != reference ${r.score}")
    }
    val byId = f.records.map(r => r.id -> r).toMap
    got.foreach { g =>
      val trueSo = Matching.semanticOverlapDirect(
        query.distinct.toArray, byId(g.id).tokens, f.simFn, alpha)
      assert(math.abs(g.score - trueSo) < 1e-9,
        s"set ${g.id}: reported ${g.score} but true SO is $trueSo")
    }
  }
}
