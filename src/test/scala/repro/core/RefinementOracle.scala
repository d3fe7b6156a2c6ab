package repro.core

import scala.collection.mutable

/** Test-only oracle: Algorithm 1 as it was written on `TreeSet` buckets, a
  * `HashMap[Int, Cand]` of boxed candidate states and string lookups, kept
  * verbatim (only renamed, returning [[OracleOutput]], counting the bucket
  * scan's prunes in `scanPruned` and showing its state to a
  * [[RefinementObserver]]) so `RefinementSpec` can check that the
  * primitive-state [[Refinement]] takes every decision it takes.
  */
final case class OracleOutput(
    survivors: IndexedSeq[Survivor],
    edgeCache: collection.Map[String, Array[(Int, Double)]],
    thetaLb: Double,
    candidates: Int,
    iubPruned: Int,
    scanPruned: Int,
    streamTuples: Long,
    timedOut: Boolean)

/** A live candidate's bounds mid-stream: `lb ≤ SO ≤ ubScore + m·s`, with `s`
  * the similarity of the tuple just processed.
  */
final case class LiveBounds(idx: Int, lb: Double, ubScore: Double, m: Int)

/** Reads the oracle's state; it cannot change a decision. */
trait RefinementObserver {
  /** After each stream tuple (its bucket scan included): the tuple's
    * similarity `s`, θ_lb, the live candidates, and the sets pruned while
    * processing it, on arrival or by the bucket scan.
    */
  def step(s: Double, thetaLb: Double, live: => Iterable[LiveBounds], pruned: Seq[Int]): Unit = ()

  /** After the stream: θ_lb and the sets the final UB check pruned. */
  def end(thetaLb: Double, pruned: Seq[Int]): Unit = ()
}

object RefinementOracle {

  def run(records: IndexedSeq[SetRecord],
          inverted: InvertedIndex,
          stream: TokenStream,
          query: Array[String],
          params: KoiosParams,
          deadlineNanos: Long,
          observer: RefinementObserver = new RefinementObserver {}): OracleOutput = {

    val qTokenSet: Map[String, Int] = query.zipWithIndex.toMap
    val topkLb = new TreeTopKList(params.k)

    final class Cand(val idx: Int, val minQC: Int) {
      var lb: Double = 0.0
      var ubScore: Double = 0.0
      var seenUB: Int = 0
      val matchedQ = new java.util.BitSet(query.length)
      val matchedTokens = mutable.HashSet.empty[String]
      def m: Int = minQC - seenUB
      def ubAt(s: Double): Double = ubScore + m * s
    }

    val cands = mutable.HashMap.empty[Int, Cand]
    val pruned = new java.util.BitSet(records.length)
    val admitted = new java.util.BitSet(records.length)
    val seenTokensGlobal = mutable.HashSet.empty[String]
    val edgeCache = mutable.HashMap.empty[String, mutable.ArrayBuffer[(Int, Double)]]

    // Buckets: m → candidates ordered ascending by (ubScore, idx).
    val buckets = mutable.HashMap.empty[Int, mutable.TreeSet[(Double, Int)]]
    def bucketAdd(c: Cand): Unit =
      buckets.getOrElseUpdate(c.m, mutable.TreeSet.empty[(Double, Int)]).add((c.ubScore, c.idx))
    def bucketRemove(c: Cand, mOld: Int, ubOld: Double): Unit =
      buckets.get(mOld).foreach { t => t.remove((ubOld, c.idx)); if (t.isEmpty) buckets.remove(mOld) }

    var nCandidates = 0
    var nPruned = 0
    var nScanPruned = 0
    var timedOut = false
    val prunedNow = mutable.ArrayBuffer.empty[Int] // for the observer only

    def pruneCandidate(idx: Int): Unit = {
      cands.remove(idx)
      pruned.set(idx)
      prunedNow += idx
      nPruned += 1
      nScanPruned += 1
    }

    /** Prefix-scan every bucket against the current θ_lb and stream sim.
      * Pruning gets [[Matching.PruneEps]] slack — see its doc comment.
      */
    def scanBuckets(s: Double): Unit = {
      val theta = topkLb.threshold
      if (theta <= 0.0) return
      val ms = buckets.keysIterator.toArray
      var bi = 0
      while (bi < ms.length) {
        val m = ms(bi)
        val bound = theta - m * s - Matching.PruneEps
        if (bound > 0.0) {
          val tree = buckets(m)
          var continue = true
          while (continue && tree.nonEmpty) {
            val head = tree.head
            if (head._1 < bound) { tree.remove(head); pruneCandidate(head._2) }
            else continue = false
          }
          if (tree.isEmpty) buckets.remove(m)
        }
        bi += 1
      }
    }

    var tupleCount = 0L
    while (stream.hasNext && !timedOut) {
      val tup = stream.next()
      tupleCount += 1
      val token = tup.token
      val s = tup.sim

      edgeCache.getOrElseUpdate(token, new mutable.ArrayBuffer[(Int, Double)]()) +=
        ((tup.qIdx, s))
      val firstArrival = seenTokensGlobal.add(token)
      val isQueryToken = qTokenSet.contains(token)

      val id = inverted.idOf(token)
      val posting = if (id >= 0) inverted.postingsOf(id) else Array.empty[Int]
      var p = 0
      while (p < posting.length) {
        val idx = posting(p)
        if (!pruned.get(idx)) {
          cands.get(idx) match {
            case None =>
              if (!admitted.get(idx)) {
                // First token of this set: admit with vanilla-overlap init.
                admitted.set(idx)
                nCandidates += 1
                val rec = records(idx)
                val c = new Cand(idx, math.min(query.length, rec.size))
                var v = 0
                var ti = 0
                while (ti < rec.tokens.length) {
                  val t = rec.tokens(ti)
                  qTokenSet.get(t) match {
                    case Some(qi) =>
                      v += 1
                      c.matchedQ.set(qi)
                      c.matchedTokens += t
                    case None => ()
                  }
                  ti += 1
                }
                c.lb = v.toDouble
                c.ubScore = v.toDouble
                c.seenUB = v // v ≤ |Q ∩ C| ≤ minQC
                // The admitting tuple itself (skip if pre-counted as vanilla).
                if (!isQueryToken) {
                  if (c.seenUB < c.minQC) { c.ubScore += s; c.seenUB += 1 }
                  if (!c.matchedQ.get(tup.qIdx) && !c.matchedTokens.contains(token)) {
                    c.lb += s; c.matchedQ.set(tup.qIdx); c.matchedTokens += token
                  }
                }
                // UB-Filter on arrival (Lemma 2 / initial iUB).
                if (c.ubAt(s) < topkLb.threshold - Matching.PruneEps) {
                  pruned.set(idx); nPruned += 1
                  prunedNow += idx
                }
                else {
                  cands.put(idx, c)
                  bucketAdd(c)
                  topkLb.update(idx.toLong, c.lb)
                }
              }
            case Some(c) =>
              // iUB: count this element's first-seen (max) similarity once.
              if (firstArrival && !isQueryToken && c.seenUB < c.minQC) {
                val mOld = c.m; val ubOld = c.ubScore
                c.ubScore += s; c.seenUB += 1
                bucketRemove(c, mOld, ubOld)
                bucketAdd(c)
              }
              // iLB: extend the partial greedy matching with a valid edge.
              if (!c.matchedQ.get(tup.qIdx) && !c.matchedTokens.contains(token)) {
                c.lb += s; c.matchedQ.set(tup.qIdx); c.matchedTokens += token
                topkLb.update(idx.toLong, c.lb)
              }
          }
        }
        p += 1
      }

      scanBuckets(s)
      observer.step(s, topkLb.threshold,
        cands.values.map(c => LiveBounds(c.idx, c.lb, c.ubScore, c.m)), prunedNow.toSeq)
      prunedNow.clear()

      if ((tupleCount & 1023L) == 0L && deadlineNanos > 0 && System.nanoTime() > deadlineNanos)
        timedOut = true
    }

    // Stream exhausted: unseen elements only have sub-α edges, so the final
    // upper bound is the capped sum of seen maxima; prune a last time.
    val theta = topkLb.threshold
    val survivors = new mutable.ArrayBuffer[Survivor](cands.size)
    cands.valuesIterator.foreach { c =>
      if (c.ubScore < theta - Matching.PruneEps) { nPruned += 1; prunedNow += c.idx }
      else survivors += Survivor(c.idx, c.lb, c.ubScore)
    }
    observer.end(theta, prunedNow.toSeq)

    val frozen = mutable.HashMap.empty[String, Array[(Int, Double)]]
    edgeCache.foreach { case (t, buf) => frozen.put(t, buf.toArray) }

    OracleOutput(
      survivors = survivors.sortBy(sv => (-sv.ub, sv.idx)).toIndexedSeq,
      edgeCache = frozen,
      thetaLb = topkLb.threshold,
      candidates = nCandidates,
      iubPruned = nPruned,
      scanPruned = nScanPruned,
      streamTuples = tupleCount,
      timedOut = timedOut)
  }
}

/** The `TreeSet` top-k list the oracle runs on, verbatim. */
final class TreeTopKList(k: Int) {
  require(k >= 1)

  // Ordered (value, id); the Map gives the current value per tracked id.
  private val tree = mutable.TreeSet.empty[(Double, Long)]
  private val values = mutable.HashMap.empty[Long, Double]

  /** Current θ_lb. */
  def threshold: Double = if (tree.size < k) 0.0 else tree.head._1

  def size: Int = tree.size

  /** Raises (or inserts) `id`'s lower bound. Returns true iff θ_lb changed. */
  def update(id: Long, lb: Double): Boolean = {
    val before = threshold
    values.get(id) match {
      case Some(old) =>
        if (lb > old) { tree.remove((old, id)); tree.add((lb, id)); values(id) = lb }
      case None =>
        if (tree.size < k) { tree.add((lb, id)); values(id) = lb }
        else if (lb > tree.head._1) {
          val (ev, evId) = tree.head
          tree.remove((ev, evId)); values.remove(evId)
          tree.add((lb, id)); values(id) = lb
        }
    }
    threshold != before
  }

  /** Ids currently in the list, descending by lower bound. */
  def entries: Seq[(Long, Double)] = tree.toSeq.reverse.map { case (v, id) => (id, v) }
}
