package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Exactness and accounting of the Baseline / Baseline+ engines (§VIII-A4). */
class BaselineSpec extends AnyFunSuite {

  private def engines(f: TestData.Fixture): (BaselineEngine, BaselineEngine) = {
    val coll = new SetCollection(f.records)
    val idx = new BruteForceSimilarityIndex(coll.vocabulary, f.simFn)
    (new BaselineEngine(coll, idx, useIubFilter = false),
      new BaselineEngine(coll, idx, useIubFilter = true))
  }

  test("baseline top-k equals brute force over 30 random instances") {
    val rng = new Random(90)
    for (trial <- 1 to 30) {
      val f = TestData.fixture(rng)
      val query = if (trial % 2 == 0) TestData.randomQuery(rng, f) else TestData.corpusQuery(rng, f)
      val k = Seq(1, 3, 5)(rng.nextInt(3))
      val alpha = Seq(0.6, 0.8)(rng.nextInt(2))
      val (baseline, _) = engines(f)
      TestData.assertValidTopK(baseline.search(query.toSeq, KoiosParams(k, alpha)).topk,
        f, query.toSeq, alpha, k)
    }
  }

  test("baseline+ (iUB-assisted) top-k equals brute force") {
    val rng = new Random(91)
    for (trial <- 1 to 30) {
      val f = TestData.fixture(rng)
      val query = if (trial % 2 == 0) TestData.randomQuery(rng, f) else TestData.corpusQuery(rng, f)
      val k = Seq(1, 3, 5)(rng.nextInt(3))
      val alpha = Seq(0.6, 0.8)(rng.nextInt(2))
      val (_, plus) = engines(f)
      TestData.assertValidTopK(plus.search(query.toSeq, KoiosParams(k, alpha)).topk,
        f, query.toSeq, alpha, k)
    }
  }

  test("plain baseline verifies every candidate (no refinement pruning)") {
    val rng = new Random(92)
    for (_ <- 1 to 10) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val (baseline, _) = engines(f)
      val s = baseline.search(query.toSeq, KoiosParams(3, 0.7)).stats
      assert(s.iubPruned == 0)
      assert(s.emComputed == s.candidates)
      assert(s.survivors == s.candidates)
    }
  }

  test("baseline+ verifies only refinement survivors, never more than baseline") {
    val rng = new Random(93)
    for (_ <- 1 to 10) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val (baseline, plus) = engines(f)
      val sb = baseline.search(query.toSeq, KoiosParams(3, 0.7)).stats
      val sp = plus.search(query.toSeq, KoiosParams(3, 0.7)).stats
      assert(sp.candidates == sb.candidates)
      assert(sp.emComputed <= sb.emComputed)
      assert(sp.emComputed == sp.survivors)
    }
  }

  test("koios and both baselines agree on score sequences") {
    val rng = new Random(94)
    for (_ <- 1 to 15) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val params = KoiosParams(5, 0.7)
      val coll = new SetCollection(f.records)
      val idx = new BruteForceSimilarityIndex(coll.vocabulary, f.simFn)
      val k = new KoiosEngine(coll, idx).search(query.toSeq, params).topk.map(_.score)
      val b = new BaselineEngine(coll, idx).search(query.toSeq, params).topk.map(_.score)
      val p = new BaselineEngine(coll, idx, useIubFilter = true)
        .search(query.toSeq, params).topk.map(_.score)
      def eq(a: Seq[Double], bb: Seq[Double]) =
        a.length == bb.length && a.zip(bb).forall { case (x, y) => math.abs(x - y) < 1e-9 }
      assert(eq(k, b), s"koios $k != baseline $b")
      assert(eq(k, p), s"koios $k != baseline+ $p")
    }
  }

  test("both baselines report Koios' candidates and stream tuples") {
    val rng = new Random(96)
    for (trial <- 1 to 10) {
      val f = TestData.fixture(rng)
      val query = TestData.withDuplicate(
        if (trial % 2 == 0) TestData.randomQuery(rng, f) else TestData.corpusQuery(rng, f))
      val params = KoiosParams(3, 0.7)
      val coll = new SetCollection(f.records)
      val idx = new BruteForceSimilarityIndex(coll.vocabulary, f.simFn)
      val k = new KoiosEngine(coll, idx).search(query.toSeq, params)
      val (baseline, plus) = engines(f)
      for (b <- Seq(baseline, plus)) {
        val res = b.search(query.toSeq, params)
        assert(res.stats.candidates == k.stats.candidates)
        assert(res.stats.streamTuples == k.stats.streamTuples)
        TestData.assertValidTopK(res.topk, f, query.toSeq, params.alpha, params.k)
      }
    }
  }

  test("baseline timeout produces a flagged partial result") {
    val rng = new Random(95)
    val f = TestData.fixture(rng, nSets = 200, maxCard = 20)
    val query = TestData.corpusQuery(rng, f)
    val coll = new SetCollection(f.records)
    val idx = new BruteForceSimilarityIndex(coll.vocabulary, f.simFn)
    // A 0-ms-ish budget: must flag timedOut rather than hang or crash.
    val res = new BaselineEngine(coll, idx).search(query.toSeq,
      KoiosParams(3, 0.5, timeoutMs = 1L))
    assert(res.stats.timedOut || res.stats.emComputed == res.stats.candidates)
  }
}
