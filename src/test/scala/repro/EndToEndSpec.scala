package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{SemanticData, TestProfiles}
import scala.util.Random

/** End-to-end exactness on the realistic synthetic corpus (concept clusters,
  * OOV tokens, Zipf token frequencies) — the data path the benches use.
  */
class EndToEndSpec extends AnyFunSuite {

  private lazy val ds = SemanticData.generate(TestProfiles.tiny)
  private lazy val simFn = new EmbeddingCosineSimilarity(ds.embeddings)
  private lazy val coll = new SetCollection(ds.sets)
  private lazy val index = new BruteForceSimilarityIndex(coll.vocabulary, simFn)
  private lazy val koios = new KoiosEngine(coll, index)

  private def check(query: Seq[String], k: Int, alpha: Double): Unit = {
    val res = koios.search(query, KoiosParams(k, alpha))
    val ref = Reference.topK(ds.sets, query, simFn, alpha, k)
    assert(res.topk.length == ref.length)
    res.topk.zip(ref).foreach { case (g, r) =>
      assert(math.abs(g.score - r.score) < 1e-9, s"k=$k alpha=$alpha: ${g.score} vs ${r.score}")
    }
  }

  test("corpus queries, default parameters (k=10, alpha=0.8)") {
    val rng = new Random(200)
    for (_ <- 1 to 5) check(ds.sets(rng.nextInt(ds.sets.length)).tokens.toSeq, 10, 0.8)
  }

  test("alpha sweep matches reference (paper Fig. 7b regime)") {
    val q = ds.sets(11).tokens.toSeq
    for (alpha <- Seq(0.6, 0.7, 0.8, 0.9, 0.95)) check(q, 5, alpha)
  }

  test("k sweep matches reference (paper Fig. 7c regime)") {
    val q = ds.sets(23).tokens.toSeq
    for (k <- Seq(1, 5, 10, 20, 50)) check(q, k, 0.8)
  }

  test("OOV-heavy queries still match via vanilla overlap") {
    // Tokens without vectors can only match themselves; results must agree.
    val oov = ds.sets.flatMap(_.tokens).distinct.filterNot(ds.embeddings.contains).take(6)
    if (oov.nonEmpty) check(oov.toSeq, 5, 0.8)
  }

  test("semantic beats vanilla: top-k semantic score ≥ top-k vanilla overlap (Lemma 1)") {
    val rng = new Random(201)
    for (_ <- 1 to 5) {
      val q = ds.sets(rng.nextInt(ds.sets.length)).tokens.toSeq
      val sem = koios.search(q, KoiosParams(5, 0.8)).topk
      val vanillaScores = ds.sets.map(s => s.tokens.count(q.toSet.contains))
        .sorted(Ordering[Int].reverse).take(5)
      sem.map(_.score).zip(vanillaScores).foreach { case (s, v) =>
        assert(s >= v - 1e-9, s"semantic $s below vanilla $v")
      }
    }
  }

  test("quality: semantic top-k differs from vanilla top-k (Fig. 8 regime)") {
    // With synonym clusters, semantic overlap must surface sets that vanilla
    // overlap misses for at least some queries.
    val rng = new Random(202)
    var diverged = false
    for (_ <- 1 to 10 if !diverged) {
      val q = ds.sets(rng.nextInt(ds.sets.length)).tokens.toSeq
      val sem = koios.search(q, KoiosParams(5, 0.8)).topk.map(_.id).toSet
      val van = ds.sets.map(s => (s.id, s.tokens.count(q.toSet.contains)))
        .sortBy { case (id, v) => (-v, id) }.take(5).map(_._1).toSet
      if (sem != van) diverged = true
    }
    assert(diverged, "semantic and vanilla top-k never diverged — no semantic signal")
  }
}
