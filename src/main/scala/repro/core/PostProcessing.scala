package repro.core

import scala.collection.mutable

/** Outcome of the post-processing phase for one query. */
final case class PostProcessingOutput(
    results: Seq[ScoredSet],
    noEm: Int,
    emEarlyTerminated: Int,
    emComputed: Int,
    finalizeEms: Int,
    timedOut: Boolean,
    helperBytes: Long = 0L)

/** Algorithm 2 — verification of refinement survivors.
  *
  * Maintains the three structures of §VI: the running top-k lower-bound list
  * `L_lb` (carried over from refinement, giving θ_lb), the top-k upper-bound
  * list `L_ub` (giving θ_ub = its minimum UB when full), and a priority queue
  * `Q_ub` of the remaining survivors ordered by UB.
  *
  * Filters:
  *  - **No-EM** (Lemma 7): a set with `LB(C) ≥ θ_ub` is guaranteed to belong
  *    to a top-k result and is accepted without any matching computation.
  *    Our `noEm` counter also includes survivors *discarded* without a
  *    matching because a grown θ_lb exceeded their UB — both cases resolve a
  *    survivor with zero matching work, which is what Tables II/IV/V tally.
  *  - **EM-Early-Terminated** (Lemma 8): the Hungarian label-sum bound aborts
  *    a matching as soon as it proves `SO(C) < θ_lb`.
  *
  * The matchings run on the calling thread and on the cores no partition
  * fan-out claimed ([[Workers.idle]], read once), which speculate ahead of
  * the algorithm ([[Speculation]]); every decision and count is the
  * sequential algorithm's. `helperBytes` is the heap the helper threads
  * allocated for the query.
  */
object PostProcessing {

  def run(records: IndexedSeq[SetRecord],
          refinement: RefinementOutput,
          query: Array[String],
          params: KoiosParams,
          deadlineNanos: Long): PostProcessingOutput =
    run(records, refinement, query, params, deadlineNanos, Workers.idle, Speculation.MinSize)

  /** [[run]] with `helpers` helper threads, offered the sets whose
    * max(|Q|, |C|) exceeds `minSize`.
    */
  private[core] def run(records: IndexedSeq[SetRecord],
                        refinement: RefinementOutput,
                        query: Array[String],
                        params: KoiosParams,
                        deadlineNanos: Long,
                        helpers: Int,
                        minSize: Int): PostProcessingOutput = {

    val topkLb = refinement.topkLb
    val spec = new Speculation(refinement, query.length, params.reducedGraphs, deadlineNanos,
      helpers, topkLb.threshold)

    // Whether any set can pass the cut-off, known without reading a record:
    // a record read per survivor was a tenth of Twitter's verification.
    val offers = helpers > 0 && math.max(query.length, refinement.inverted.maxSetSize) > minSize

    final class PostSet(val idx: Int, var lb: Double, var ub: Double) {
      var checked = false
      var exact = false
      val job: Speculation.Job =
        if (offers && math.max(query.length, records(idx).size) > minSize)
          new Speculation.Job(idx, ub, live = true)
        else null
    }

    var noEm = 0
    var emEarly = 0
    var emDone = 0
    var finalized = 0
    var timedOut = false

    // Survivors arrive pre-sorted descending by UB.
    val all = refinement.survivors.map(sv => new PostSet(sv.idx, sv.lb, sv.ub))
    val lub = mutable.ArrayBuffer.empty[PostSet] // ≤ k entries, the top UBs
    val qub = mutable.PriorityQueue.empty[PostSet] { (a: PostSet, b: PostSet) =>
      val c = java.lang.Double.compare(a.ub, b.ub) // highest UB, then lowest idx
      if (c != 0) c else Integer.compare(b.idx, a.idx)
    }
    all.take(params.k).foreach(lub += _)
    all.drop(params.k).foreach(qub.enqueue(_))

    /** Drop L_ub entries beaten by θ_lb; unchecked drops are No-EM prunes.
      * [[Matching.PruneEps]] slack guards fp-tied scores.
      */
    def sweep(): Unit = {
      val theta = topkLb.threshold - Matching.PruneEps
      var i = lub.length - 1
      while (i >= 0) {
        if (lub(i).ub < theta) {
          if (!lub(i).checked) noEm += 1
          lub.remove(i)
        }
        i -= 1
      }
    }

    /** Refill L_ub from Q_ub up to k entries, discarding UB-beaten sets. */
    def refill(): Unit = {
      val theta = topkLb.threshold - Matching.PruneEps
      while (lub.length < params.k && qub.nonEmpty) {
        val c = qub.dequeue()
        if (c.ub < theta) { if (!c.checked) noEm += 1 }
        else lub += c
      }
    }

    def thetaUb: Double =
      if (lub.length < params.k && qub.isEmpty) 0.0
      else if (lub.isEmpty) 0.0
      else lub.iterator.map(_.ub).min

    spec.offer(all.iterator.map(_.job).filter(_ != null).toArray)
    val results = try {
      var continue = true
      while (continue && !timedOut) {
        sweep(); refill()
        // Select the unchecked set with the highest UB.
        var best: PostSet = null
        lub.foreach { c => if (!c.checked && (best == null || c.ub > best.ub)) best = c }
        if (best == null) continue = false
        else {
          if (best.lb >= thetaUb) {
            // No-EM (Lemma 7): guaranteed to be in a top-k result.
            best.checked = true
            noEm += 1
          } else {
            spec.matching(best.idx, best.job, topkLb.threshold) match {
              case EarlyTerminated =>
                emEarly += 1
                lub -= best // SO < θ_lb ≤ θ_k*: out of every top-k result.
              case Completed(so) =>
                emDone += 1
                best.lb = so; best.ub = so
                best.checked = true; best.exact = true
                if (topkLb.update(best.idx.toLong, so)) spec.raise(topkLb.threshold)
                // SO may no longer be a top-k UB: demote and let refill decide.
                lub -= best
                qub.enqueue(best)
              case Interrupted =>
                timedOut = true
            }
          }
          if (deadlineNanos > 0 && System.nanoTime() > deadlineNanos) timedOut = true
        }
      }

      // Drain: survivors still queued when L_ub is complete are resolved
      // without any matching work (their UB is at most the k-th largest) —
      // tally them under No-EM so filter counts partition the survivors.
      while (qub.nonEmpty) { if (!qub.dequeue().checked) noEm += 1 }

      // Finalize: attach exact scores to No-EM-accepted results so every
      // returned score is exact (needed by the distributed top-k merge). Once
      // the deadline has passed, a result keeps its refinement lower bound.
      if (!timedOut) spec.finalizing(lub.iterator.filterNot(_.exact).map(_.job).toSeq)
      lub.map { c =>
        val id = records(c.idx).id
        if (c.exact) ScoredSet(id, c.ub)
        else if (timedOut) ScoredSet(id, c.lb)
        else spec.exact(c.idx, c.job) match {
          case Completed(so) =>
            finalized += 1
            ScoredSet(id, so)
          case _ => // Interrupted: no threshold is given
            timedOut = true
            ScoredSet(id, c.lb)
        }
      }.sorted(ScoredSet.ByScore).toSeq
    } finally spec.close()

    PostProcessingOutput(results, noEm, emEarly, emDone, finalized, timedOut, spec.helperBytes)
  }

  /** The baselines' verification (§VIII-A4): an exact matching for every
    * candidate the candidate phase passes on, in its order, keeping the top k.
    * No bound is used, so each candidate costs one completed matching.
    */
  def verifyAll(records: IndexedSeq[SetRecord],
                candidates: RefinementOutput,
                query: Array[String],
                params: KoiosParams,
                deadlineNanos: Long): PostProcessingOutput = {
    val scratch = Matching.Scratch.local()
    val topk = mutable.PriorityQueue.empty(ScoredSet.ByScore)
    var emDone = 0
    var timedOut = candidates.timedOut
    val it = candidates.survivors.iterator
    while (it.hasNext && !timedOut) {
      val idx = it.next().idx
      Matching.weights(query.length, candidates.inverted.tokenIds(idx), candidates.edges,
        params.reducedGraphs, scratch)
      Matching.hungarianMax(scratch, deadlineNanos = deadlineNanos) match {
        case Completed(so) =>
          emDone += 1
          if (so > 0.0) {
            topk.enqueue(ScoredSet(records(idx).id, so))
            if (topk.size > params.k) topk.dequeue()
          }
          if (deadlineNanos > 0 && System.nanoTime() > deadlineNanos) timedOut = true
        case _ => // Interrupted: no threshold is given
          timedOut = true
      }
    }
    PostProcessingOutput(topk.toSeq.sorted(ScoredSet.ByScore), noEm = 0,
      emEarlyTerminated = 0, emComputed = emDone, finalizeEms = 0, timedOut = timedOut)
  }
}
