package repro.core

import scala.collection.mutable

/** The paper's baselines (§VIII-A4): the Koios pipeline with other phases.
  *
  * **Baseline**: uses the token stream only for candidate generation
  * ([[AllCandidates]]: any set with ≥1 element of similarity ≥ α to a query
  * element), then computes the exact bipartite matching for *every*
  * candidate and keeps a top-k list.
  *
  * **Baseline+** (`useIubFilter = true`): additionally activates the
  * refinement-phase iUB filter (needed to make WDC-scale repositories
  * feasible), then verifies every survivor — no No-EM or early termination.
  */
final class BaselineEngine(repo: SetCollection, index: SimilarityIndex,
                           useIubFilter: Boolean = false) extends KoiosEngine(repo, index) {

  override protected def candidatePhase(stream: TokenStream, query: Array[String],
                                        params: KoiosParams,
                                        deadlineNanos: Long): RefinementOutput =
    if (useIubFilter) super.candidatePhase(stream, query, params, deadlineNanos)
    else AllCandidates.run(repo.records, repo.inverted, stream, query, deadlineNanos)

  override protected def verifyPhase(candidates: RefinementOutput, query: Array[String],
                                     params: KoiosParams,
                                     deadlineNanos: Long): PostProcessingOutput =
    PostProcessing.verifyAll(repo.records, candidates, query, params, deadlineNanos)
}

/** Unfiltered candidate generation: drains the token stream and admits every
  * set that contains a streamed token, i.e. every set with at least one
  * α-neighbour of a query token, keeping the stream's (qIdx, sim) [[Edges]]
  * by token id for verification. No bound is maintained, so the candidates
  * carry only the trivial bounds 0 ≤ SO ≤ min(|Q|,|C|) and come out in
  * repository order; nothing is pruned. Shared by the plain Baseline and
  * SilkMoth.
  */
object AllCandidates {

  def run(records: IndexedSeq[SetRecord],
          inverted: InvertedIndex,
          stream: TokenStream,
          query: Array[String],
          deadlineNanos: Long): RefinementOutput = {
    val edges = new Edges(inverted.vocabularySize)
    val seen = new java.util.BitSet(records.length)
    var tuples = 0L
    var timedOut = false
    while (stream.hasNext && !timedOut) {
      val tup = stream.next()
      tuples += 1
      val id = inverted.idOf(tup.token)
      if (id >= 0) {
        edges.add(id, tup.qIdx, tup.sim)
        inverted.postingsOf(id).foreach(seen.set)
      }
      if ((tuples & 1023L) == 0L && deadlineNanos > 0 && System.nanoTime() > deadlineNanos)
        timedOut = true
    }
    val survivors = mutable.ArrayBuffer.empty[Survivor]
    var i = seen.nextSetBit(0)
    while (i >= 0) {
      survivors += Survivor(i, 0.0, math.min(query.length, records(i).size).toDouble)
      i = seen.nextSetBit(i + 1)
    }
    RefinementOutput(
      survivors = survivors.toIndexedSeq,
      inverted = inverted,
      edges = edges,
      topkLb = new TopKList(1), // stays empty: no lower bound, θ_lb = 0
      candidates = survivors.length,
      iubPruned = 0,
      scanPruned = 0,
      streamTuples = tuples,
      timedOut = timedOut)
  }
}
