package repro.perfbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

import repro.core._
import repro.harness.PartitionedEngines

/** Wall time, thread CPU time and heap bytes allocated by the current thread
  * over one call into a layer.
  */
final case class Span(wallNs: Long, cpuNs: Long, allocBytes: Long) {
  def +(o: Span): Span = Span(wallNs + o.wallNs, cpuNs + o.cpuNs, allocBytes + o.allocBytes)
}

object Span {
  val Zero: Span = Span(0L, 0L, 0L)

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val os =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def of[A](body: => A): (A, Span) = {
    val c0 = threads.getCurrentThreadCpuTime
    val a0 = threads.getCurrentThreadAllocatedBytes
    val w0 = System.nanoTime()
    val r = body
    val w1 = System.nanoTime()
    (r, Span(w1 - w0, threads.getCurrentThreadCpuTime - c0, threads.getCurrentThreadAllocatedBytes - a0))
  }

  /** CPU time of the whole process: every thread, including GC and JIT. */
  def processCpuNs(): Long = os.getProcessCpuTime

  /** Heap bytes allocated so far by each live thread. */
  def allocatedByThread(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes allocated between two [[allocatedByThread]] snapshots. Threads
    * started in between count from zero.
    */
  def allocatedBetween(before: Map[Long, Long], after: Map[Long, Long]): Long =
    after.iterator.map { case (id, b) => b - before.getOrElse(id, 0L) }.sum

  /** (collection time ms, collection count) summed over all collectors. */
  def gc(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }
}

/** [[SimilarityIndex]] wrapper that counts probes and the pairs they return. */
final class CountingIndex(inner: SimilarityIndex) extends SimilarityIndex {
  var calls = 0
  var pairs = 0L
  override def neighbors(q: String, alpha: Double): Array[(String, Double)] = {
    val r = inner.neighbors(q, alpha)
    calls += 1
    pairs += r.length
    r
  }
}

/** One partition's part of one traced query. `startNs`/`endNs` bound the
  * `engineOf` closure on its pool thread.
  */
final case class PartitionTrace(
    startNs: Long,
    endNs: Long,
    probe: Span,
    probeCalls: Int,
    vocabScanned: Long,
    pairsReturned: Long,
    refine: Span,
    thetaLbRefine: Double,
    verify: Span,
    result: SearchResult) {
  def closureNs: Long = endNs - startNs
}

/** The engine of [[KoiosEngine.search]] rebuilt from its public layers, with
  * a span around each: the wrapped index probed by `new TokenStream`, then
  * `Refinement.run`, then `PostProcessing.run`.
  */
object Tracer {

  type EngineOf = (SetCollection, SimilarityIndex) => Seq[String] => SearchResult

  /** The untraced engine of the end-to-end runs. */
  def koios(params: KoiosParams): EngineOf =
    (c, i) => q => new KoiosEngine(c, i).search(q, params)

  /** The untraced engine, keeping each partition's result in `sink`. */
  def recording(eng: PartitionedEngines, params: KoiosParams,
                sink: Array[SearchResult]): EngineOf =
    (c, i) => {
      val p = eng.parts.indexWhere(_ eq c)
      q => { val r = new KoiosEngine(c, i).search(q, params); sink(p) = r; r }
    }

  /** The traced engine, keeping each partition's trace in `sink`. */
  def traced(eng: PartitionedEngines, params: KoiosParams,
             sink: Array[PartitionTrace]): EngineOf =
    (c, index) => {
      val start = System.nanoTime()
      val p = eng.parts.indexWhere(_ eq c)
      queryTokens => {
        val query = queryTokens.distinct.toArray
        val deadline =
          if (params.timeoutMs > 0) System.nanoTime() + params.timeoutMs * 1000000L else 0L
        val counted = new CountingIndex(index)
        val (stream, probe) = Span.of(new TokenStream(query, counted, params.alpha))
        val (ref, refine) = Span.of(
          Refinement.run(c.records, c.inverted, stream, query, params, deadline))
        val thetaLbRefine = ref.topkLb.threshold
        val (post, verify) = Span.of(PostProcessing.run(c.records, ref, query, params, deadline))
        val result = SearchResult(
          topk = post.results.take(params.k),
          stats = SearchStats(
            candidates = ref.candidates,
            iubPruned = ref.iubPruned,
            survivors = ref.survivors.length,
            noEm = post.noEm,
            emEarlyTerminated = post.emEarlyTerminated,
            emComputed = post.emComputed,
            finalizeEms = post.finalizeEms,
            streamTuples = ref.streamTuples,
            thetaLbFinal = ref.topkLb.threshold,
            timedOut = ref.timedOut || post.timedOut))
        sink(p) = PartitionTrace(start, System.nanoTime(), probe, counted.calls,
          counted.calls.toLong * c.vocabulary.length, counted.pairs,
          refine, thetaLbRefine, verify, result)
        result
      }
    }

  /** The fields of [[SearchStats]] that the traced engine must reproduce. */
  def counts(s: SearchStats): Seq[Any] =
    Seq(s.candidates, s.iubPruned, s.survivors, s.noEm, s.emEarlyTerminated, s.emComputed,
      s.finalizeEms, s.streamTuples, s.thetaLbFinal, s.timedOut)

  /** True when the traced partition reproduced the untraced engine's top-k
    * and every filter count.
    */
  def sameAsEngine(t: PartitionTrace, r: SearchResult): Boolean =
    t.result.topk == r.topk && counts(t.result.stats) == counts(r.stats)
}
