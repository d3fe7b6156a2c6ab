package repro.core

import scala.collection.mutable

/** Exact threshold-based similarity index over the vocabulary `D` (§IV).
  *
  * For a query token `q`, `neighbors(q, α)` returns every vocabulary token
  * with `sim(q, t) ≥ α`, in descending similarity (ties broken by token for
  * determinism). This is the abstraction the paper plugs Faiss / minhash-LSH
  * into; Koios only requires that results are exact and ordered.
  */
trait SimilarityIndex extends Serializable {
  def neighbors(q: String, alpha: Double): Array[(String, Double)]
}

/** Exact brute-force index — our substitute for the paper's GPU Faiss index.
  *
  * Computes `sim(q, t)` for every vocabulary token and sorts descending.
  * For [[EmbeddingCosineSimilarity]] the vocabulary vectors are resolved once
  * so a probe is a single vectorized pass; out-of-vocabulary query tokens
  * yield only their identical-token match (similarity 1), which realizes the
  * paper's rule that a query element always matches itself (§V).
  */
final class BruteForceSimilarityIndex(vocab: Array[String], simFn: TokenSimilarity)
    extends SimilarityIndex {

  private val embedding: Option[EmbeddingCosineSimilarity] = simFn match {
    case e: EmbeddingCosineSimilarity => Some(e)
    case _                            => None
  }
  // Parallel to `vocab`; null marks an out-of-vocabulary token.
  private val vocabVecs: Array[Array[Float]] =
    embedding.map(e => vocab.map(t => e.vectors.getOrElse(t, null))).orNull
  private val vocabSet: Set[String] = vocab.toSet

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] = {
    val buf = new mutable.ArrayBuffer[(String, Double)]()
    embedding match {
      case Some(e) =>
        e.vectors.get(q) match {
          case Some(qv) =>
            var i = 0
            while (i < vocab.length) {
              val t = vocab(i)
              val s =
                if (t == q) 1.0
                else if (vocabVecs(i) eq null) 0.0
                else EmbeddingCosineSimilarity.dotClamped(qv, vocabVecs(i))
              if (s >= alpha) buf += ((t, s))
              i += 1
            }
          case None =>
            // OOV query token: only the identical vocabulary token matches.
            if (vocabSet.contains(q)) buf += ((q, 1.0))
        }
      case None =>
        var i = 0
        while (i < vocab.length) {
          val s = simFn.sim(q, vocab(i))
          if (s >= alpha) buf += ((vocab(i), s))
          i += 1
        }
    }
    val arr = buf.toArray
    scala.util.Sorting.stableSort(arr, (a: (String, Double), b: (String, Double)) =>
      a._2 > b._2 || (a._2 == b._2 && a._1 < b._1))
    arr
  }
}

/** Prefix-filter index for q-gram Jaccard similarity — the paper's setup for
  * the fuzzy comparison (§VIII-B), where the token stream is produced with
  * set-similarity-join techniques instead of an embedding index: a gram
  * inverted index over the vocabulary is probed with the prefix of the query
  * token's gram set (`|g| − ceil(α·|g|) + 1` grams in a fixed global order),
  * which is guaranteed to hit every token with Jaccard ≥ α; survivors are
  * verified exactly.
  */
final class QGramPrefixIndex(vocab: Array[String], jaccard: JaccardQGramSimilarity)
    extends SimilarityIndex {

  private val gramIndex: Map[String, Array[String]] = {
    val m = scala.collection.mutable.HashMap.empty[String, mutable.ArrayBuffer[String]]
    vocab.foreach { t =>
      jaccard.grams(t).foreach(g => m.getOrElseUpdate(g, new mutable.ArrayBuffer[String]()) += t)
    }
    m.view.mapValues(_.toArray).toMap
  }
  private val vocabSet: Set[String] = vocab.toSet

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] = {
    val gs = jaccard.grams(q).toArray.sorted
    val prefixLen = math.max(1, gs.length - math.ceil(alpha * gs.length).toInt + 1)
    val cands = mutable.HashSet.empty[String]
    gs.take(prefixLen).foreach(g => gramIndex.get(g).foreach(cands ++= _))
    if (vocabSet.contains(q)) cands += q
    val out = cands.iterator
      .map(t => (t, jaccard.sim(q, t)))
      .filter(_._2 >= alpha)
      .toArray
    scala.util.Sorting.stableSort(out, (a: (String, Double), b: (String, Double)) =>
      a._2 > b._2 || (a._2 == b._2 && a._1 < b._1))
    out
  }
}

/** Index backed by precomputed (query token → neighbors) lists — used on
  * Spark executors where the similarity table was computed once as a
  * DataFrame, collected, and broadcast (§VI scale-out). The lists are sorted
  * once, here, so a probe only applies the α filter.
  */
final class PrecomputedSimilarityIndex(lists: Map[String, Array[(String, Double)]])
    extends SimilarityIndex {
  private val sorted = lists.map { case (q, xs) => q -> xs.sortBy { case (t, s) => (-s, t) } }

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] =
    sorted.getOrElse(q, Array.empty[(String, Double)]).filter(_._2 >= alpha)
}
