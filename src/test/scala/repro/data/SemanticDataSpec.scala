package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.EmbeddingCosineSimilarity
import scala.util.Random

class SemanticDataSpec extends AnyFunSuite {

  private lazy val tiny = SemanticData.generate(TestProfiles.tiny)

  test("generation is deterministic in the profile") {
    val a = SemanticData.generate(TestProfiles.tiny)
    val b = SemanticData.generate(TestProfiles.tiny)
    assert(a.sets.map(_.tokens.toSeq) == b.sets.map(_.tokens.toSeq))
    assert(a.embeddings.keySet == b.embeddings.keySet)
    a.embeddings.foreach { case (t, v) => assert(v.sameElements(b.embeddings(t))) }
  }

  test("different seeds give different corpora") {
    val c = SemanticData.generate(TestProfiles.tiny.copy(seed = 99))
    assert(c.sets.map(_.tokens.toSeq) != tiny.sets.map(_.tokens.toSeq))
  }

  test("set count and cardinality bounds respect the profile") {
    val p = TestProfiles.tiny
    assert(tiny.sets.length == p.nSets)
    tiny.sets.foreach { s =>
      assert(s.size >= 1)
      assert(s.size <= p.maxCard)
    }
  }

  test("set ids are unique and sequential") {
    assert(tiny.sets.map(_.id) == tiny.sets.indices.map(_.toLong))
  }

  test("within-cluster cosine is high, cross-cluster is low") {
    val p = TestProfiles.tiny
    val simFn = new EmbeddingCosineSimilarity(tiny.embeddings)
    val rng = new Random(1)
    val inCluster = for {
      _ <- 1 to 300
      c = rng.nextInt(p.nConcepts)
      a = SemanticData.tokenName(c, 0)
      b = SemanticData.tokenName(c, 1)
      if tiny.embeddings.contains(a) && tiny.embeddings.contains(b)
    } yield simFn.sim(a, b)
    val cross = for {
      _ <- 1 to 300
      c1 = rng.nextInt(p.nConcepts)
      c2 = rng.nextInt(p.nConcepts)
      if c1 != c2
      a = SemanticData.tokenName(c1, 0)
      b = SemanticData.tokenName(c2, 0)
      if tiny.embeddings.contains(a) && tiny.embeddings.contains(b)
    } yield simFn.sim(a, b)
    val inAvg = inCluster.sum / inCluster.length
    val crossAvg = cross.sum / cross.length
    assert(inAvg > 0.75, s"within-cluster avg cosine $inAvg too low")
    assert(crossAvg < 0.4, s"cross-cluster avg cosine $crossAvg too high")
  }

  test("OOV fraction is in the right ballpark") {
    val p = TestProfiles.tiny
    val total = p.nConcepts * p.synonymsPerConcept
    val oov = total - tiny.embeddings.size
    val frac = oov.toDouble / total
    assert(frac > p.oovFraction * 0.5 && frac < p.oovFraction * 1.8,
      s"OOV fraction $frac vs configured ${p.oovFraction}")
  }

  test("embeddings are (near) unit vectors") {
    tiny.embeddings.values.take(50).foreach { v =>
      val n = math.sqrt(v.map(x => x.toDouble * x).sum)
      assert(math.abs(n - 1.0) < 1e-3)
    }
  }

  test("corpus statistics helpers") {
    assert(tiny.maxSize == tiny.sets.map(_.size).max)
    assert(math.abs(tiny.avgSize - tiny.sets.map(_.size).sum.toDouble / tiny.sets.length) < 1e-9)
    assert(tiny.uniqueElements <= TestProfiles.tiny.nConcepts *
      TestProfiles.tiny.synonymsPerConcept)
  }

  test("skewed profiles produce skewed cardinalities (median < mean)") {
    val ds = SemanticData.generate(
      TestProfiles.tiny.copy(minCard = 5, maxCard = 200, cardSkew = 3.5, nSets = 400))
    val sizes = ds.sets.map(_.size).sorted
    val median = sizes(sizes.length / 2)
    val mean = sizes.sum.toDouble / sizes.length
    assert(median < mean, s"median $median !< mean $mean — not right-skewed")
  }

  test("uniform query sampling is deterministic and drawn from the corpus") {
    val q1 = SemanticData.sampleQueries(tiny, 10, seed = 5)
    val q2 = SemanticData.sampleQueries(tiny, 10, seed = 5)
    assert(q1.map(_.id) == q2.map(_.id))
    assert(q1.length == 10)
    val ids = tiny.sets.map(_.id).toSet
    assert(q1.forall(q => ids.contains(q.id)))
  }

  test("interval sampling respects cardinality ranges") {
    val intervals = Seq((1, 10), (10, 20), (20, Int.MaxValue))
    val sampled = SemanticData.sampleQueriesByInterval(tiny, intervals, 5, seed = 6)
    assert(sampled.length == 3)
    sampled.zip(intervals).foreach { case ((_, qs), (lo, hi)) =>
      qs.foreach(q => assert(q.size >= lo && q.size < hi))
      assert(qs.length <= 5)
    }
  }

  test("hot tokens exist under a high Zipf exponent (WDC-like posting skew)") {
    val ds = SemanticData.generate(
      TestProfiles.tiny.copy(conceptZipf = 1.3, pLocal = 0.3, nSets = 500))
    val freq = ds.sets.flatMap(_.tokens).groupBy(identity).map(_._2.length)
    val max = freq.max
    val avg = freq.sum.toDouble / freq.size
    assert(max > avg * 5, s"no hot tokens: max freq $max vs avg $avg")
  }
}
