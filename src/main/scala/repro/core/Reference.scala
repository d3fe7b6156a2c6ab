package repro.core

/** Brute-force reference implementation: computes `SO(Q, C)` for every set in
  * the repository via the Hungarian kernel and sorts. O(|L| · n³) — only for
  * tests and tiny inputs, never for benches.
  */
object Reference {

  /** Exact scores for every set with non-zero semantic overlap. */
  def allScores(records: IndexedSeq[SetRecord], query: Seq[String],
                simFn: TokenSimilarity, alpha: Double): Seq[ScoredSet] = {
    val q = query.distinct.toArray
    records.iterator
      .map(r => ScoredSet(r.id, Matching.semanticOverlapDirect(q, r.tokens, simFn, alpha)))
      .filter(_.score > 0.0)
      .toSeq
      .sorted(ScoredSet.ByScore)
  }

  /** True top-k (deterministic tie-break by id, matching the engines). */
  def topK(records: IndexedSeq[SetRecord], query: Seq[String],
           simFn: TokenSimilarity, alpha: Double, k: Int): Seq[ScoredSet] =
    allScores(records, query, simFn, alpha).take(k)

  /** θ_k* — the k-th largest semantic overlap (0 if fewer than k non-zero). */
  def thetaKStar(records: IndexedSeq[SetRecord], query: Seq[String],
                 simFn: TokenSimilarity, alpha: Double, k: Int): Double = {
    val scores = allScores(records, query, simFn, alpha)
    if (scores.length < k) 0.0 else scores(k - 1).score
  }
}
