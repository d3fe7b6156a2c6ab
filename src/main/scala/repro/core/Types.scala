package repro.core

/** A set in the repository: an id and its distinct string elements (tokens).
  *
  * The constructor is private: every record is built by the companion's
  * factory, which deduplicates the tokens, so |C| is the set cardinality and
  * no element can be matched twice, however the record was produced.
  */
final class SetRecord private (val id: Long, val tokens: Array[String]) extends Serializable {
  /** Set cardinality |C|. */
  def size: Int = tokens.length
  override def toString: String = s"SetRecord($id, ${tokens.mkString("{", ",", "}")})"
}

object SetRecord {
  /** Builds a record with deduplicated tokens (stable order of first occurrence). */
  def apply(id: Long, tokens: IterableOnce[String]): SetRecord =
    new SetRecord(id, tokens.iterator.distinct.toArray)
}

/** One result entry: a set id and its exact semantic overlap with the query. */
final case class ScoredSet(id: Long, score: Double)

object ScoredSet {
  /** Descending score, then ascending id: the order of every top-k answer. */
  val ByScore: Ordering[ScoredSet] = (a, b) => {
    val c = java.lang.Double.compare(b.score, a.score)
    if (c != 0) c else java.lang.Long.compare(a.id, b.id)
  }
}

/** Filter/effort counters for one query, mirroring the paper's Tables II/IV/V.
  *
  *  - `candidates`       — sets admitted from the inverted index (non-zero SO).
  *  - `iubPruned`        — refinement prunes (UB-Filter on arrival + iUB buckets).
  *  - `survivors`        — candidates − iubPruned (enter post-processing).
  *  - `noEm`             — survivors resolved without starting a matching
  *                         (accepted by Lemma 7 or UB-pruned by a grown θ_lb).
  *  - `emEarlyTerminated`— matchings aborted by the label-sum bound (Lemma 8).
  *  - `emComputed`       — matchings run to completion.
  *  - `finalizeEms`      — matchings run solely to attach exact scores to
  *                         No-EM-accepted results (distributed merge needs
  *                         comparable scores); kept out of the filter counts.
  *
  * Phase times: `probeMs` builds the token stream (probing the similarity
  * index), `refinementMs` is the candidate phase after it, `postprocMs` the
  * verify phase. `memBytes` is the heap the search allocated on its thread,
  * garbage included, measured like the times.
  */
final case class SearchStats(
    candidates: Int = 0,
    iubPruned: Int = 0,
    survivors: Int = 0,
    noEm: Int = 0,
    emEarlyTerminated: Int = 0,
    emComputed: Int = 0,
    finalizeEms: Int = 0,
    streamTuples: Long = 0L,
    probeMs: Double = 0.0,
    refinementMs: Double = 0.0,
    postprocMs: Double = 0.0,
    memBytes: Long = 0L,
    thetaLbFinal: Double = 0.0,
    timedOut: Boolean = false) {

  def totalMs: Double = probeMs + refinementMs + postprocMs

  /** Element-wise sum, for aggregating over a query benchmark. */
  def +(o: SearchStats): SearchStats = SearchStats(
    candidates + o.candidates,
    iubPruned + o.iubPruned,
    survivors + o.survivors,
    noEm + o.noEm,
    emEarlyTerminated + o.emEarlyTerminated,
    emComputed + o.emComputed,
    finalizeEms + o.finalizeEms,
    streamTuples + o.streamTuples,
    probeMs + o.probeMs,
    refinementMs + o.refinementMs,
    postprocMs + o.postprocMs,
    memBytes + o.memBytes,
    math.max(thetaLbFinal, o.thetaLbFinal),
    timedOut || o.timedOut)
}

/** A complete answer for one query: top-k entries (descending score) + stats. */
final case class SearchResult(topk: Seq[ScoredSet], stats: SearchStats)

object SearchResult {
  /** Merges per-partition answers into the answer over the whole repository.
    * Exact because each partition's top-k scores are exact and the global
    * top-k lies in the union of the per-partition lists. Counts are summed;
    * phase times are the per-partition maxima (the parallel-makespan view
    * the paper reports). No partitions give an empty answer.
    */
  def merge(parts: Seq[SearchResult], k: Int): SearchResult = {
    def slowest(f: SearchStats => Double): Double =
      parts.map(r => f(r.stats)).maxOption.getOrElse(0.0)
    SearchResult(
      topk = parts.flatMap(_.topk).sorted(ScoredSet.ByScore).take(k),
      stats = parts.map(_.stats).foldLeft(SearchStats())(_ + _)
        .copy(probeMs = slowest(_.probeMs), refinementMs = slowest(_.refinementMs),
          postprocMs = slowest(_.postprocMs)))
  }
}

/** Search parameters shared by Koios and the baselines.
  *
  * @param k           result size
  * @param alpha       element-similarity threshold α (edges below count as 0)
  * @param timeoutMs   per-query wall-clock budget; ≤0 disables. On timeout the
  *                    partial result is returned with `timedOut = true`.
  * @param reducedGraphs when false (default), verification builds the full
  *                    |Q|×|C| similarity matrix per candidate — the paper's
  *                    kernel (§VIII-A3), O(max(|Q|,|C|)³) per matching. When
  *                    true, the matrix is reduced to nodes with ≥1 α-edge —
  *                    an optimization beyond the paper with identical scores.
  */
final case class KoiosParams(
    k: Int,
    alpha: Double,
    timeoutMs: Long = 0L,
    reducedGraphs: Boolean = false) {
  require(k >= 1, s"k must be >= 1, got $k")
  require(alpha > 0.0 && alpha <= 1.0, s"alpha must be in (0, 1], got $alpha")
}
