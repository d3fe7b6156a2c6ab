package repro.fuzzy

import scala.collection.mutable
import repro.core._

/** A faithful-in-structure reimplementation of the SilkMoth comparison
  * systems of §VIII-B: *threshold-based* fuzzy set search with maximum
  * matching semantics, adapted to top-k by passing the true `θ_k*` (the
  * paper's protocol, which advantages SilkMoth).
  *
  * Two variants:
  *
  *  - **semantic** (`syntactic = false`): the generic search framework the
  *    SilkMoth authors suggest, with all similarity-function-specific filters
  *    removed — candidates are sets sharing ≥1 α-similar element with the
  *    query; every candidate is verified with the exact matching.
  *  - **syntactic** (`syntactic = true`): adds the Jaccard-specific machinery
  *    — prefix-filter signatures over token q-grams to find similar tokens
  *    without scanning the vocabulary, plus the capped per-element
  *    upper-bound check before verification.
  *
  * Only the syntactic variant requires `simFn` to be
  * [[repro.core.JaccardQGramSimilarity]]; the semantic variant takes any
  * symmetric similarity.
  */
final class SilkMothLite(repo: SetCollection, simFn: TokenSimilarity, alpha: Double,
                         syntactic: Boolean) {

  require(!syntactic || simFn.isInstanceOf[JaccardQGramSimilarity],
    "the syntactic variant's signature filters are Jaccard-specific")

  // Vocabulary probe: prefix-filter signatures over token q-grams for the
  // syntactic variant, a scan of the whole vocabulary for the semantic one.
  private val index: SimilarityIndex = simFn match {
    case j: JaccardQGramSimilarity if syntactic => new QGramPrefixIndex(repo.vocabulary, j)
    case _ => new BruteForceSimilarityIndex(repo.vocabulary, simFn)
  }

  /** All sets with `SO(Q, C) ≥ theta` and their exact scores. */
  def thresholdSearch(queryTokens: Seq[String], theta: Double): Seq[ScoredSet] =
    thresholdSearchTimed(queryTokens, theta, 0L)._1

  /** Like [[thresholdSearch]] with a wall-clock budget; returns the partial
    * result and whether the budget was exhausted (the benches' timeout
    * protocol, §VIII-B).
    */
  def thresholdSearchTimed(queryTokens: Seq[String], theta: Double, timeoutMs: Long)
      : (Seq[ScoredSet], Boolean) = {
    val deadline = if (timeoutMs > 0) System.nanoTime() + timeoutMs * 1000000L else 0L
    val query = queryTokens.distinct.toArray
    val cands = AllCandidates.run(repo.records, repo.inverted,
      new TokenStream(query, index, alpha), query, deadline)
    val edges = cands.edges

    val scratch = Matching.Scratch.local()
    var timedOut = cands.timedOut
    val out = mutable.ArrayBuffer.empty[ScoredSet]
    val it = cands.survivors.iterator
    while (it.hasNext && !timedOut) {
      val idx = it.next().idx
      val rec = repo.records(idx)
      val cols = repo.inverted.tokenIds(idx)
      val verify =
        if (!syntactic) true
        else {
          // Capped per-element upper bound (generic SilkMoth check phase).
          val maxSims = cols.map { t =>
            var m = 0.0
            var e = edges.head(t)
            while (e != 0) { m = math.max(m, edges.sim(e)); e = edges.next(e) }
            m
          }.filter(_ > 0.0).sorted(Ordering[Double].reverse)
          maxSims.take(math.min(query.length, rec.size)).sum >= theta
        }
      if (verify) {
        // Same kernel as the engines' default: full |Q|×|C| matrix (§VIII-A3).
        Matching.weights(query.length, cols, edges, reduced = false, scratch)
        Matching.hungarianMax(scratch, deadlineNanos = deadline) match {
          case Completed(so) => if (so >= theta && so > 0.0) out += ScoredSet(rec.id, so)
          case _             => timedOut = true // Interrupted: no threshold is given
        }
      }
      if (deadline > 0 && System.nanoTime() > deadline) timedOut = true
    }
    (out.sorted(ScoredSet.ByScore).toSeq, timedOut)
  }

  /** Top-k adaptation (§VIII-B): threshold search at the true `θ_k*`, then a
    * top-k priority queue over the result.
    */
  def topK(queryTokens: Seq[String], k: Int, thetaKStar: Double): Seq[ScoredSet] =
    thresholdSearch(queryTokens, thetaKStar).take(k)
}
