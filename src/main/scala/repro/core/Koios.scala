package repro.core

/** A repository of sets with its query-independent indexes: the inverted
  * index `I_s` and the vocabulary `D` (the similarity index over `D` is
  * supplied separately so the same collection supports different `sim`
  * functions). Index construction is excluded from response times, as in the
  * paper (§VIII-A3).
  */
final class SetCollection(val records: IndexedSeq[SetRecord]) extends Serializable {
  require(records.map(_.id).distinct.length == records.length, "set ids must be unique")
  val inverted: InvertedIndex = InvertedIndex.build(records)
  def vocabulary: Array[String] = inverted.vocabulary
}

/** End-to-end Koios search on one repository (one partition in the
  * distributed setting): normalise the query, probe the similarity index
  * into the token stream, run refinement (Alg. 1) then post-processing
  * (Alg. 2), and record phase timings, filter counters and a memory estimate.
  * The baselines ([[BaselineEngine]]) are this pipeline with other phases.
  */
class KoiosEngine(collection: SetCollection, index: SimilarityIndex) {

  /** Candidate selection over the token stream. */
  protected def candidatePhase(stream: TokenStream, query: Array[String], params: KoiosParams,
                               deadlineNanos: Long): RefinementOutput =
    Refinement.run(collection.records, collection.inverted, stream, query, params, deadlineNanos)

  /** Verification of the candidate phase's survivors. */
  protected def verifyPhase(candidates: RefinementOutput, query: Array[String],
                            params: KoiosParams, deadlineNanos: Long): PostProcessingOutput =
    PostProcessing.run(collection.records, candidates, query, params, deadlineNanos)

  /** Estimated bytes of the bound state the candidate phase kept: its
    * record- and token-indexed arrays, the matched bits of its candidates and
    * one heap entry per candidate (more after iUB steps).
    */
  protected def boundStateBytes(candidates: RefinementOutput, queryLen: Int): Long = {
    val records = collection.records.length
    SizeEst.ofCandidates(records, collection.inverted.vocabularySize, candidates.candidates,
      queryLen, avgCard = collection.inverted.totalPostings.toDouble / math.max(1, records)) +
      SizeEst.ofBuckets(candidates.candidates)
  }

  final def search(queryTokens: Seq[String], params: KoiosParams): SearchResult = {
    val query = queryTokens.distinct.toArray
    val deadline =
      if (params.timeoutMs > 0) System.nanoTime() + params.timeoutMs * 1000000L else 0L

    val t0 = System.nanoTime()
    val stream = new TokenStream(query, index, params.alpha)
    val tStream = System.nanoTime()
    val cands = candidatePhase(stream, query, params, deadline)
    val t1 = System.nanoTime()
    val post = verifyPhase(cands, query, params, deadline)
    val t2 = System.nanoTime()

    val mem =
      SizeEst.ofTokenStream(stream.bufferedPairs) +
        SizeEst.ofEdgeCache(cands.edgeCache) +
        boundStateBytes(cands, query.length) +
        SizeEst.ofPostProcessing(params.k, cands.survivors.length, post.largestMatching)

    SearchResult(
      topk = post.results.take(params.k),
      stats = SearchStats(
        candidates = cands.candidates,
        iubPruned = cands.iubPruned,
        survivors = cands.survivors.length,
        noEm = post.noEm,
        emEarlyTerminated = post.emEarlyTerminated,
        emComputed = post.emComputed,
        finalizeEms = post.finalizeEms,
        streamTuples = cands.streamTuples,
        probeMs = (tStream - t0) / 1e6,
        refinementMs = (t1 - tStream) / 1e6,
        postprocMs = (t2 - t1) / 1e6,
        memBytes = mem,
        thetaLbFinal = cands.topkLb.threshold,
        timedOut = cands.timedOut || post.timedOut))
  }
}
