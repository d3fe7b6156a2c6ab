package repro.core

/** User-defined element similarity (Def. 1).
  *
  * Must be symmetric, return 1 for identical elements, and a value in [0, 1]
  * otherwise. The α threshold is applied by callers (`sim_α`), not here.
  */
trait TokenSimilarity {
  def sim(a: String, b: String): Double

  /** sim_α from Def. 1: values below the threshold are zeroed. */
  final def simAlpha(a: String, b: String, alpha: Double): Double = {
    val s = sim(a, b)
    if (s >= alpha) s else 0.0
  }
}

/** Vanilla overlap as a special case of semantic overlap: equality → 1 else 0. */
object ExactMatchSimilarity extends TokenSimilarity {
  override def sim(a: String, b: String): Double = if (a == b) 1.0 else 0.0
}

/** Cosine similarity of token embedding vectors (the paper's FastText setup).
  *
  * Out-of-vocabulary handling follows §V: identical tokens always have
  * similarity 1 (even if neither has a vector); if either token lacks a
  * vector and they differ, the similarity is 0. Vectors are L2-normalized at
  * construction so `sim` is a clamped dot product.
  */
final class EmbeddingCosineSimilarity(raw: Map[String, Array[Float]]) extends TokenSimilarity {
  /** Normalized vectors; zero vectors are treated as out-of-vocabulary. */
  val vectors: Map[String, Array[Float]] = raw.flatMap { case (t, v) =>
    val n = math.sqrt(v.map(x => x.toDouble * x).sum)
    if (n == 0.0) None
    else Some(t -> v.map(x => (x / n).toFloat))
  }

  override def sim(a: String, b: String): Double =
    if (a == b) 1.0
    else (vectors.get(a), vectors.get(b)) match {
      case (Some(va), Some(vb)) => EmbeddingCosineSimilarity.dotClamped(va, vb)
      case _                    => 0.0
    }
}

object EmbeddingCosineSimilarity {
  /** Dot product of unit vectors, clamped into [0, 1] (negative cosine means
    * "unrelated" for the overlap measure, which requires sim in [0, 1]).
    */
  def dotClamped(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i).toDouble * b(i); i += 1 }
    math.min(1.0, math.max(0.0, s))
  }
}

/** Jaccard similarity of the q-gram multisets-as-sets of two tokens —
  * the character-level similarity used for the SilkMoth comparison (§VIII-B).
  * Tokens shorter than q are padded conceptually by using the token itself
  * as its only gram.
  */
final class JaccardQGramSimilarity(q: Int = 3) extends TokenSimilarity {
  require(q >= 1, s"q must be >= 1, got $q")

  // Gram sets are recomputed |Q|·|D| times during brute-force probing; the
  // cache is concurrent because the probe's chunks run in parallel.
  private val cache = new java.util.concurrent.ConcurrentHashMap[String, Set[String]]()

  def grams(t: String): Set[String] = {
    val hit = cache.get(t)
    if (hit != null) hit
    else {
      val g =
        if (t.length <= q) Set(t)
        else (0 to t.length - q).map(i => t.substring(i, i + q)).toSet
      cache.put(t, g)
      g
    }
  }

  override def sim(a: String, b: String): Double =
    if (a == b) 1.0
    else {
      val ga = grams(a); val gb = grams(b)
      val inter = ga.count(gb.contains)
      val union = ga.size + gb.size - inter
      if (union == 0) 0.0 else inter.toDouble / union
    }
}
