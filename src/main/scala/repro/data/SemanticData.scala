package repro.data

import repro.core.SetRecord
import scala.collection.mutable
import scala.util.Random

/** Shape parameters of a synthetic set corpus (substitute for the paper's
  * DBLP / OpenData / Twitter / WDC extractions, §VIII-A1).
  *
  * The vocabulary is organized into *concept clusters*: each concept has a
  * random unit centroid in R^dim and `synonymsPerConcept` surface tokens
  * whose vectors sit near the centroid, so within-cluster cosine ≈
  * `clusterCosine` (with spread crossing the α threshold — the interesting
  * regime for the filters) while cross-cluster cosine ≈ 0 w.h.p. A fraction
  * of tokens is out-of-vocabulary (no vector), exercising the
  * vanilla-overlap initialization.
  *
  * Sets draw concepts from a Zipf distribution (`conceptZipf` controls hot
  * tokens / long posting lists — high for the WDC-like profile) mixed with a
  * per-set topic window (`pLocal`, `localityWindow`) that creates clusters of
  * semantically related sets. Cardinalities follow
  * `minCard + (maxCard − minCard) · u^cardSkew` — skew > 1 biases small sets,
  * reproducing the power-law cardinalities of OpenData/WDC.
  */
final case class DatasetProfile(
    name: String,
    nSets: Int,
    nConcepts: Int,
    synonymsPerConcept: Int,
    dim: Int,
    clusterCosine: Double,
    oovFraction: Double,
    minCard: Int,
    maxCard: Int,
    cardSkew: Double,
    conceptZipf: Double,
    localityWindow: Int,
    pLocal: Double,
    seed: Long,
    topicZipf: Double = 0.0)

/** A generated corpus: the sets, the token embeddings (OOV tokens absent),
  * and the profile it came from. Deterministic in the profile.
  */
final case class SemanticDataset(
    profile: DatasetProfile,
    sets: Vector[SetRecord],
    embeddings: Map[String, Array[Float]]) {

  def maxSize: Int = sets.iterator.map(_.size).max
  def avgSize: Double = sets.iterator.map(_.size).sum.toDouble / sets.length
  def uniqueElements: Int = sets.iterator.flatMap(_.tokens).toSet.size
}

object SemanticData {

  /** ~DBLP: few, medium-large, mildly skewed sets (titles+abstracts). */
  val dblpLite: DatasetProfile = DatasetProfile(
    name = "DBLP-lite", nSets = 1500, nConcepts = 3000, synonymsPerConcept = 5,
    dim = 24, clusterCosine = 0.88, oovFraction = 0.10,
    minCard = 60, maxCard = 260, cardSkew = 1.2,
    conceptZipf = 0.7, localityWindow = 25, pLocal = 0.80, seed = 11, topicZipf = 0.6)

  /** ~OpenData: table columns, heavily skewed cardinalities up to large. */
  val openDataLite: DatasetProfile = DatasetProfile(
    name = "OpenData-lite", nSets = 3000, nConcepts = 6000, synonymsPerConcept = 6,
    dim = 24, clusterCosine = 0.88, oovFraction = 0.15,
    minCard = 10, maxCard = 900, cardSkew = 8.0,
    conceptZipf = 0.9, localityWindow = 40, pLocal = 0.70, seed = 13, topicZipf = 0.6)

  /** ~Twitter: many small sets (tweet words). */
  val twitterLite: DatasetProfile = DatasetProfile(
    name = "Twitter-lite", nSets = 6000, nConcepts = 5000, synonymsPerConcept = 5,
    dim = 24, clusterCosine = 0.88, oovFraction = 0.20,
    minCard = 5, maxCard = 40, cardSkew = 1.5,
    conceptZipf = 1.2, localityWindow = 30, pLocal = 0.45, seed = 17, topicZipf = 0.8)

  /** ~WDC: the largest corpus, skewed cardinalities, *hot* tokens with very
    * long posting lists (high Zipf exponent over a smaller vocabulary).
    */
  val wdcLite: DatasetProfile = DatasetProfile(
    name = "WDC-lite", nSets = 12000, nConcepts = 3500, synonymsPerConcept = 6,
    dim = 24, clusterCosine = 0.88, oovFraction = 0.15,
    minCard = 5, maxCard = 500, cardSkew = 15.0,
    conceptZipf = 1.25, localityWindow = 50, pLocal = 0.65, seed = 19, topicZipf = 0.8)

  def tokenName(concept: Int, synonym: Int): String = f"t$concept%05d_$synonym"

  /** Generates the corpus deterministically from the profile. */
  def generate(p: DatasetProfile): SemanticDataset = {
    val embeddings = Map.newBuilder[String, Array[Float]]
    val rngVec = new Random(p.seed * 7919L + 1)
    val rngOov = new Random(p.seed * 104729L + 2)
    // Within-cluster cosine ≈ 1 / (1 + dim·σ²)  ⇒  σ = sqrt((1−t)/(t·dim)).
    val sigma = math.sqrt((1.0 - p.clusterCosine) / (p.clusterCosine * p.dim))

    var c = 0
    while (c < p.nConcepts) {
      val centroid = normalize(Array.fill(p.dim)(rngVec.nextGaussian()))
      var j = 0
      while (j < p.synonymsPerConcept) {
        val oov = rngOov.nextDouble() < p.oovFraction
        if (!oov) {
          val v = normalize(centroid.zip(Array.fill(p.dim)(rngVec.nextGaussian() * sigma))
            .map { case (a, b) => a + b })
          embeddings += tokenName(c, j) -> v.map(_.toFloat)
        } else {
          // Keep the vector stream aligned so OOV choice doesn't shift others.
          Array.fill(p.dim)(rngVec.nextGaussian())
        }
        j += 1
      }
      c += 1
    }

    // Zipf CDFs over concept ranks (concept 0 is the hottest): one for token
    // draws (posting-list skew), one for per-set topic choice (topic skew —
    // popular topics create many semantically related sets, the regime where
    // verification load matters; 0 keeps topics uniform).
    def zipfCdf(exp: Double): (Array[Double], Double) = {
      val weights = Array.tabulate(p.nConcepts)(r => 1.0 / math.pow(r + 1.0, exp))
      val cdf = weights.scanLeft(0.0)(_ + _).drop(1)
      (cdf, cdf.last)
    }
    val (tokCdf, tokTotal) = zipfCdf(p.conceptZipf)
    def draw(rng: Random, cdf: Array[Double], total: Double): Int = {
      val u = rng.nextDouble() * total
      val i = java.util.Arrays.binarySearch(cdf, u)
      if (i >= 0) math.min(i, p.nConcepts - 1) else math.min(-i - 1, p.nConcepts - 1)
    }
    def zipfDraw(rng: Random): Int = draw(rng, tokCdf, tokTotal)
    val topicDraw: Random => Int =
      if (p.topicZipf <= 0.0) rng => rng.nextInt(p.nConcepts)
      else { val (c, t) = zipfCdf(p.topicZipf); rng => draw(rng, c, t) }

    val rngSets = new Random(p.seed * 6151L + 3)
    val sets = Vector.tabulate(p.nSets) { si =>
      val u = rngSets.nextDouble()
      val card = p.minCard + ((p.maxCard - p.minCard) * math.pow(u, p.cardSkew)).toInt
      val topic = topicDraw(rngSets)
      val toks = mutable.LinkedHashSet.empty[String]
      var attempts = 0
      while (toks.size < card && attempts < card * 8) {
        val concept =
          if (rngSets.nextDouble() < p.pLocal)
            (topic + rngSets.nextInt(p.localityWindow)) % p.nConcepts
          else zipfDraw(rngSets)
        toks += tokenName(concept, rngSets.nextInt(p.synonymsPerConcept))
        attempts += 1
      }
      SetRecord(si.toLong, toks)
    }

    SemanticDataset(p, sets, embeddings.result())
  }

  /** Uniform random query sample: the tokens of `n` corpus sets (§VIII-A2,
    * DBLP/Twitter style — no cardinality stratification).
    */
  def sampleQueries(ds: SemanticDataset, n: Int, seed: Long): Seq[SetRecord] = {
    val rng = new Random(seed)
    rng.shuffle(ds.sets).take(n)
  }

  /** Stratified query sample: `perInterval` sets from each cardinality range
    * `[lo, hi)` (§VIII-A2, OpenData/WDC style — prevents small-set bias).
    * Intervals with too few sets contribute what they have.
    */
  def sampleQueriesByInterval(ds: SemanticDataset, intervals: Seq[(Int, Int)],
                              perInterval: Int, seed: Long): Seq[(String, Seq[SetRecord])] = {
    val rng = new Random(seed)
    intervals.map { case (lo, hi) =>
      val pool = ds.sets.filter(s => s.size >= lo && s.size < hi)
      val label = if (hi == Int.MaxValue) s"> $lo" else s"$lo - $hi"
      label -> rng.shuffle(pool).take(perInterval)
    }
  }

  private def normalize(v: Array[Double]): Array[Double] = {
    val n = math.sqrt(v.map(x => x * x).sum)
    if (n == 0.0) v else v.map(_ / n)
  }
}
