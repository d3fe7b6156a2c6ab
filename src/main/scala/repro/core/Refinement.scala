package repro.core

import scala.collection.mutable

/** A candidate that survived refinement, with its final bounds.
  *
  * At stream end every α-edge has been observed, so `ub` is the capped sum of
  * per-element maximum similarities (unseen elements only have sub-α edges,
  * which contribute 0 to `SO`), and `lb` is the complete greedy matching
  * score: `lb ≤ SO(C) ≤ ub`.
  */
final case class Survivor(idx: Int, lb: Double, ub: Double)

/** Output of the candidate phase. `edges` holds, per token id of `inverted`,
  * the (qIdx, sim ≥ α) edges the stream emitted — the similarity cache the
  * paper reuses to build matching matrices in post-processing (§VIII-A3).
  * `iubPruned` counts every refinement prune; `scanPruned` is the part of it
  * made mid-stream by the bucket scan.
  */
final case class RefinementOutput(
    survivors: IndexedSeq[Survivor],
    inverted: InvertedIndex,
    edges: Edges,
    topkLb: TopKList,
    candidates: Int,
    iubPruned: Int,
    scanPruned: Int,
    streamTuples: Long,
    timedOut: Boolean)

/** Algorithm 1 — candidate selection with the UB/LB/iUB/iLB filters.
  *
  * Candidates arrive from the token stream × inverted index in descending
  * order of their initial upper bound. Per candidate we maintain:
  *
  *  - `lb`: the partial greedy matching score (iLB, Lemma 5). Stream order is
  *    descending weight, so accepting every valid edge *is* the greedy
  *    matching. Initialized to the vanilla overlap |Q ∩ C| (§V).
  *  - `ubScore`/`m`: the sum of each element's first-seen (= maximum)
  *    similarity, capped at `min(|Q|,|C|)` elements, giving the sound
  *    incremental upper bound `iUB = ubScore + m·s` with
  *    `m = min(|Q|,|C|) − seenUB` and `s` the current stream similarity
  *    (see DESIGN.md §1 for the Lemma 6 soundness fix).
  *
  * Candidates are bucketized by `m`; each bucket is a min-heap on `ubScore`
  * so the prune condition `ubScore < θ_lb − m·s` pops a prefix.
  *
  * The state is primitive and indexed by record: one `idOf` per stream tuple,
  * then only array reads. Each streamed token's postings carry its position in
  * each set, which addresses the set's matched-element bit.
  */
object Refinement {

  private final val Unseen: Byte = 0
  private final val Live: Byte = 1
  private final val Pruned: Byte = 2

  def run(records: IndexedSeq[SetRecord],
          inverted: InvertedIndex,
          stream: TokenStream,
          query: Array[String],
          params: KoiosParams,
          deadlineNanos: Long): RefinementOutput = {

    val topkLb = new TopKList(params.k)

    // Query position of each token id, -1 for tokens outside the query.
    val qPos = Array.fill(inverted.vocabularySize)(-1)
    query.indices.foreach { qi =>
      val id = inverted.idOf(query(qi))
      if (id >= 0) qPos(id) = qi
    }

    // Candidate state by record. `m` is min(|Q|,|C|) minus the elements seen.
    val state = new Array[Byte](records.length)
    val lb = new Array[Double](records.length)
    val ubScore = new Array[Double](records.length)
    val m = new Array[Int](records.length)
    // Matched bits of each admitted candidate, from word `bitsAt(idx)` of the
    // slab: `qWords` words of matched query positions, then one bit per set
    // element. The slab grows per candidate, so no N·|Q| bit set exists.
    val bitsAt = new Array[Int](records.length)
    val qWords = (query.length + 63) >>> 6
    var slab = new Array[Long](1024)
    var slabUsed = 0
    def isSet(word: Int, bit: Int): Boolean = (slab(word + (bit >>> 6)) & (1L << bit)) != 0L
    def setBit(word: Int, bit: Int): Unit = slab(word + (bit >>> 6)) |= 1L << bit

    val edges = new Edges(inverted.vocabularySize)

    // Buckets by m ∈ 0..|Q|: min-heaps of (ubScore, idx) with lazy deletion.
    // An entry is live iff its set is live with that m; each iUB step pushes
    // the set into bucket m − 1, so a set has exactly one live entry.
    val buckets = new Array[Bucket](query.length + 1)
    def bucketAdd(idx: Int): Unit = {
      if (buckets(m(idx)) == null) buckets(m(idx)) = new Bucket
      buckets(m(idx)).push(ubScore(idx), idx)
    }

    var nCandidates = 0
    var nPruned = 0
    var nScanPruned = 0
    var timedOut = false

    /** Pops every bucket's live entries below θ_lb − m·s, for m upward until
      * that bound is ≤ 0 (it falls with m); stale heads are dropped on the way.
      * Pruning gets [[Matching.PruneEps]] slack — see its doc comment.
      */
    def scanBuckets(s: Double): Unit = {
      val theta = topkLb.threshold
      var bm = 0
      var bound = theta - Matching.PruneEps
      while (bound > 0.0 && bm < buckets.length) {
        val heap = buckets(bm)
        var scanning = heap != null
        while (scanning && heap.size > 0) {
          val idx = heap.headIdx
          val live = state(idx) == Live && m(idx) == bm
          if (!live) heap.pop()
          else if (heap.headUb < bound) { heap.pop(); state(idx) = Pruned; nScanPruned += 1 }
          else scanning = false
        }
        bm += 1
        bound = theta - bm * s - Matching.PruneEps
      }
    }

    var tupleCount = 0L
    while (stream.hasNext && !timedOut) {
      val tup = stream.next()
      tupleCount += 1
      val qi = tup.qIdx
      val s = tup.sim

      val id = inverted.idOf(tup.token)
      if (id >= 0) {
        val firstArrival = edges.add(id, qi, s)
        val isQueryToken = qPos(id) >= 0
        val posting = inverted.postingsOf(id)
        val position = inverted.positionsOf(id)
        var p = 0
        while (p < posting.length) {
          val idx = posting(p)
          val pos = position(p)
          if (state(idx) == Unseen) {
            // First token of this set: admit with vanilla-overlap init.
            nCandidates += 1
            val toks = inverted.tokenIds(idx)
            val at = slabUsed
            val words = qWords + ((toks.length + 63) >>> 6)
            if (at + words > slab.length)
              slab = java.util.Arrays.copyOf(slab, math.max(2 * slab.length, at + words))
            slabUsed += words
            var v = 0
            var ti = 0
            while (ti < toks.length) {
              val q = qPos(toks(ti))
              if (q >= 0) { v += 1; setBit(at, q); setBit(at + qWords, ti) }
              ti += 1
            }
            var l = v.toDouble
            var u = v.toDouble
            var mi = math.min(query.length, toks.length) - v // v ≤ |Q ∩ C| ≤ min(|Q|,|C|)
            // The admitting tuple itself (skip if pre-counted as vanilla).
            if (!isQueryToken) {
              if (mi > 0) { u += s; mi -= 1 }
              if (!isSet(at, qi) && !isSet(at + qWords, pos)) {
                l += s; setBit(at, qi); setBit(at + qWords, pos)
              }
            }
            // UB-Filter on arrival (Lemma 2 / initial iUB).
            if (u + mi * s < topkLb.threshold - Matching.PruneEps) {
              state(idx) = Pruned; nPruned += 1
              java.util.Arrays.fill(slab, at, at + words, 0L)
              slabUsed = at
            }
            else {
              state(idx) = Live
              lb(idx) = l; ubScore(idx) = u; m(idx) = mi; bitsAt(idx) = at
              bucketAdd(idx)
              topkLb.update(idx.toLong, l)
            }
          }
          else if (state(idx) == Live) {
            // iUB: count this element's first-seen (max) similarity once.
            if (firstArrival && !isQueryToken && m(idx) > 0) {
              ubScore(idx) += s; m(idx) -= 1
              bucketAdd(idx)
            }
            // iLB: extend the partial greedy matching with a valid edge.
            val at = bitsAt(idx)
            if (!isSet(at, qi) && !isSet(at + qWords, pos)) {
              lb(idx) += s; setBit(at, qi); setBit(at + qWords, pos)
              topkLb.update(idx.toLong, lb(idx))
            }
          }
          p += 1
        }
      }

      scanBuckets(s)

      if ((tupleCount & 1023L) == 0L && deadlineNanos > 0 && System.nanoTime() > deadlineNanos)
        timedOut = true
    }

    // Stream exhausted: unseen elements only have sub-α edges, so the final
    // upper bound is the capped sum of seen maxima; prune a last time.
    val theta = topkLb.threshold
    val survivors = new mutable.ArrayBuffer[Survivor]()
    var r = 0
    while (r < records.length) {
      if (state(r) == Live) {
        if (ubScore(r) < theta - Matching.PruneEps) nPruned += 1
        else survivors += Survivor(r, lb(r), ubScore(r))
      }
      r += 1
    }

    RefinementOutput(
      survivors = survivors.sortInPlace()(ByUb).toIndexedSeq,
      inverted = inverted,
      edges = edges,
      topkLb = topkLb,
      candidates = nCandidates,
      iubPruned = nPruned + nScanPruned,
      scanPruned = nScanPruned,
      streamTuples = tupleCount,
      timedOut = timedOut)
  }

  /** Descending upper bound, then ascending record: the order of `Q_ub`. */
  private val ByUb: Ordering[Survivor] = (a, b) => {
    val c = java.lang.Double.compare(b.ub, a.ub)
    if (c != 0) c else Integer.compare(a.idx, b.idx)
  }

  /** A binary min-heap of (ubScore, record) entries on parallel arrays. */
  private final class Bucket {
    private var ubs = new Array[Double](16)
    private var idxs = new Array[Int](16)
    private var n = 0

    def size: Int = n
    def headUb: Double = ubs(0)
    def headIdx: Int = idxs(0)

    def push(ub: Double, idx: Int): Unit = {
      if (n == ubs.length) {
        ubs = java.util.Arrays.copyOf(ubs, 2 * n)
        idxs = java.util.Arrays.copyOf(idxs, 2 * n)
      }
      var s = n
      n += 1
      while (s > 0 && ub < ubs((s - 1) / 2)) {
        ubs(s) = ubs((s - 1) / 2); idxs(s) = idxs((s - 1) / 2); s = (s - 1) / 2
      }
      ubs(s) = ub; idxs(s) = idx
    }

    /** Removes the head. */
    def pop(): Unit = {
      n -= 1
      val ub = ubs(n)
      val idx = idxs(n)
      var s = 0
      var moving = true
      while (moving) {
        val l = 2 * s + 1
        val c = if (l + 1 < n && ubs(l + 1) < ubs(l)) l + 1 else l
        if (c < n && ubs(c) < ub) { ubs(s) = ubs(c); idxs(s) = idxs(c); s = c }
        else moving = false
      }
      ubs(s) = ub; idxs(s) = idx
    }
  }
}
