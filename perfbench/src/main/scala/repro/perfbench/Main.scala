package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.Try

import repro.core._
import repro.data.SemanticDataset
import repro.harness.PartitionedEngines

/** One named metric of a run, as printed and as written to the JSON line. */
final case class Metric(name: String, value: Double, unit: String)

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --dir <benchmark dir>
  * Main --references <name> --dir <benchmark dir>
  * }}}
  *
  * A run generates the workload's corpus and puts its query set in the
  * seed's order, builds [[PartitionedEngines]] `SetupReps` times (median =
  * `setup_s`), warms the JIT up on the last build for `WarmupSeconds`, then
  * runs whole passes over the queries in a closed loop (one client, the next
  * query only after the previous one returned) until `--seconds` have
  * passed. Every answer is checked against the brute-force reference.
  * `--trace 0` reports the end-to-end metrics; `--trace 1` reports per-layer
  * metrics from the traced engine, run next to the untraced one on every
  * query. The last line of standard output is the JSON result; the exit code
  * is non-zero unless every query was exact.
  *
  * `--references` computes any missing reference answers for the workload's
  * query set without the run's time limit, for use after the corpus, the
  * query set or the parameters change.
  */
object Main {

  val SetupReps = 9
  val WarmupSeconds = 6.0

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val dir = new File(opts.getOrElse("dir", "perfbench"))
    val ok = Try {
      opts.get("references") match {
        case Some(name) =>
          val wl = workload(name)
          val ds = wl.corpus()
          val queries = wl.queries(ds).map(_.record)
          referencesOf(dir, wl, ds).scoresFor(queries)
          println(s"references for ${queries.length} queries of ${wl.name} are in ${referenceFile(dir, wl)}")
          true
        case None =>
          val wl = workload(opts("workload"))
          val seed = opts("seed").toLong
          val seconds = opts("seconds").toDouble
          val trace = opts("trace") == "1"
          new Run(wl, seed, seconds, dir).execute(trace)
      }
    }.recover { case e: Throwable => e.printStackTrace(); false }.get
    sys.exit(if (ok) 0 else 1)
  }

  private def workload(name: String): Workload =
    Workload.byName(name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${Workload.all.map(_.name).mkString(", ")}"))

  def referenceFile(dir: File, wl: Workload): File = new File(dir, s"reference/${wl.name}.tsv")

  def referencesOf(dir: File, wl: Workload, ds: SemanticDataset): References =
    new References(referenceFile(dir, wl), ds, wl.params)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Int): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1))
  }
}

/** One benchmark run of one workload and seed. */
final class Run(wl: Workload, seed: Long, seconds: Double, dir: File) {
  import Main.{median, percentile}
  import Run.QueryTrace

  private val params = wl.params
  private val ds = wl.corpus()
  private val sample = wl.sample(ds, seed)
  // The warm-up runs the query set in one fixed order, smallest interval
  // first, whatever the seed: warmed up in the seed's order, the JIT compiled
  // the query path differently on some seeds and allocation per query doubled.
  private val warmupOrder = wl.queries(ds)
  private val references = Main.referencesOf(dir, wl, ds)
  private val expected = references.scoresFor(sample.map(_.record))
  private val rows = ArrayBuffer.empty[String]
  private var warmupQueries = 0

  private def ms(ns: Long): Double = ns / 1e6
  private def mb(bytes: Long): Double = bytes / (1024.0 * 1024.0)

  private def exact(topk: Seq[ScoredSet], stats: SearchStats, q: Query): Boolean =
    !stats.timedOut && References.matches(topk, expected(q.id))

  /** Whole passes over the sample until `seconds` have passed; returns the
    * elapsed wall time in seconds.
    */
  private def passes(body: (Query, Int) => Unit): Double = {
    val t0 = System.nanoTime()
    var pass = 0
    while (pass == 0 || (System.nanoTime() - t0) / 1e9 < seconds) {
      sample.foreach(body(_, pass))
      pass += 1
    }
    (System.nanoTime() - t0) / 1e9
  }

  private def warmUp(eng: PartitionedEngines): Unit = {
    val t0 = System.nanoTime()
    while ((System.nanoTime() - t0) / 1e9 < Main.WarmupSeconds) {
      eng.run(warmupOrder(warmupQueries % warmupOrder.length).tokens, params, Tracer.koios(params))
      warmupQueries += 1
    }
  }

  /** Builds the engines `SetupReps` times, before the warm-up, so that the
    * measured queries run in the JIT state the warm-up left. Returns the last
    * build and the wall times in seconds.
    */
  private def setUp(): (PartitionedEngines, Seq[Double]) = {
    val built = (1 to Main.SetupReps).map { _ =>
      val t0 = System.nanoTime()
      val e = new PartitionedEngines(ds, wl.partitions)
      (e, (System.nanoTime() - t0) / 1e9)
    }
    built.init.foreach(_._1.shutdown())
    (built.last._1, built.map(_._2))
  }

  def execute(trace: Boolean): Boolean = {
    val (eng, setupTimes) = setUp()
    try {
      warmUp(eng)
      val gc0 = Span.gc()
      val (metrics, attempted, failed, checksOk) =
        if (trace) traced(eng) else untraced(eng, setupTimes)
      val gc1 = Span.gc()
      // Timed last: building collections before the measured loop changes
      // how the JIT compiles the query path (Twitter queries took a third
      // less time), and the traced run must start where the untraced one does.
      val setupLayerMetrics = if (trace) setupLayers(eng) else Nil
      report(setupLayerMetrics ++ metrics, attempted, failed, checksOk, trace,
        (gc1._1 - gc0._1, gc1._2 - gc0._2))
    } finally eng.shutdown()
  }

  private def untraced(eng: PartitionedEngines, setupTimes: Seq[Double])
      : (Seq[Metric], Int, Int, Boolean) = {
    val engine = Tracer.koios(params)
    val latencies = ArrayBuffer.empty[Double]
    var failed = 0
    val cpu0 = Span.processCpuNs()
    val alloc0 = Span.allocatedByThread()
    val elapsed = passes { (q, pass) =>
      val t0 = System.nanoTime()
      val res = Try(eng.run(q.tokens, params, engine))
      val lat = ms(System.nanoTime() - t0)
      val ok = res.toOption.exists { case (topk, stats, _) => exact(topk, stats, q) }
      if (!ok) failed += 1
      latencies += lat
      rows += Json.obj("pass" -> pass, "query" -> q.id, "size" -> q.size,
        "interval" -> q.interval, "latency_ms" -> lat, "exact" -> ok)
    }
    val cpuNs = Span.processCpuNs() - cpu0
    val allocBytes = Span.allocatedBetween(alloc0, Span.allocatedByThread())
    val n = latencies.length
    val tailP = wl.tailPercentile(sample.length)
    println(s"latency_tail_ms is p$tailP over $n samples")
    val metrics = Seq(
      Metric("qps", n / elapsed, "queries/s"),
      Metric("latency_p50_ms", median(latencies.toSeq), "ms"),
      Metric("latency_tail_ms", percentile(latencies.toSeq, tailP), "ms"),
      Metric("cpu_ms_per_query", ms(cpuNs) / n, "ms"),
      Metric("alloc_mb_per_query", mb(allocBytes) / n, "MB"),
      Metric("setup_s", median(setupTimes), "s"))
    (metrics, n, failed, true)
  }

  private def traced(eng: PartitionedEngines): (Seq[Metric], Int, Int, Boolean) = {
    val p = wl.partitions
    val traces = ArrayBuffer.empty[QueryTrace]
    var failed = 0
    passes { (q, pass) =>
      val untracedSink = new Array[SearchResult](p)
      val tracedSink = new Array[PartitionTrace](p)
      def runUntraced() = {
        val t0 = System.nanoTime()
        val r = eng.run(q.tokens, params, Tracer.recording(eng, params, untracedSink))
        (r, System.nanoTime() - t0)
      }
      def runTraced() = {
        val t0 = System.nanoTime()
        val r = eng.run(q.tokens, params, Tracer.traced(eng, params, tracedSink))
        (r, t0, System.nanoTime())
      }
      // Alternate which engine goes first so neither gets the warmer caches.
      val ((u, uNs), (t, t0, t1)) =
        if (traces.length % 2 == 0) { val u = runUntraced(); (u, runTraced()) }
        else { val t = runTraced(); (runUntraced(), t) }
      val same = (0 until p).forall(i => Tracer.sameAsEngine(tracedSink(i), untracedSink(i)))
      val ok = same && exact(u._1, u._2, q) && exact(t._1, t._2, q)
      if (!ok) failed += 1
      val qt = QueryTrace(tracedSink.toSeq, uNs, t0, t1)
      traces += qt
      rows += queryRow(q, pass, qt, ok)
    }
    val n = traces.length.toDouble
    def mean(f: QueryTrace => Double): Double = traces.map(f).sum / n
    def total(f: PartitionTrace => Double): Double = traces.map(_.sum(f)).sum / n
    val st: PartitionTrace => SearchStats = _.result.stats
    val candidates = total(st(_).candidates)
    val survivors = total(st(_).survivors)
    val layerShare = traces.map(_.sum(x => (x.probe + x.refine + x.verify).wallNs.toDouble)).sum /
      traces.map(_.sum(_.closureNs.toDouble)).sum
    val fanoutShare = traces.map(x => (x.queueWaitNs + x.partitionMaxNs + x.mergeNs).toDouble).sum /
      traces.map(_.wallNs.toDouble).sum
    val metrics = Seq(
      Metric("probe.wall_ms", total(x => ms(x.probe.wallNs)), "ms"),
      Metric("probe.cpu_ms", total(x => ms(x.probe.cpuNs)), "ms"),
      Metric("probe.alloc_mb", total(x => mb(x.probe.allocBytes)), "MB"),
      Metric("probe.calls", total(_.probeCalls), "count"),
      Metric("probe.vocab_scanned", total(_.vocabScanned.toDouble), "count"),
      Metric("probe.pairs_returned", total(_.pairsReturned.toDouble), "count"),
      Metric("probe.hit_ratio", total(_.pairsReturned.toDouble) / total(_.vocabScanned.toDouble), "ratio"),
      Metric("refine.wall_ms", total(x => ms(x.refine.wallNs)), "ms"),
      Metric("refine.cpu_ms", total(x => ms(x.refine.cpuNs)), "ms"),
      Metric("refine.alloc_mb", total(x => mb(x.refine.allocBytes)), "MB"),
      Metric("refine.stream_tuples", total(st(_).streamTuples.toDouble), "count"),
      Metric("refine.candidates", candidates, "count"),
      Metric("refine.iub_pruned", total(st(_).iubPruned), "count"),
      Metric("refine.survivors", survivors, "count"),
      Metric("refine.prune_ratio", total(st(_).iubPruned) / candidates, "ratio"),
      Metric("refine.theta_lb_min", mean(_.parts.map(_.thetaLbRefine).min), "score"),
      Metric("refine.theta_lb_max", mean(_.parts.map(_.thetaLbRefine).max), "score"),
      Metric("verify.wall_ms", total(x => ms(x.verify.wallNs)), "ms"),
      Metric("verify.cpu_ms", total(x => ms(x.verify.cpuNs)), "ms"),
      Metric("verify.alloc_mb", total(x => mb(x.verify.allocBytes)), "MB"),
      Metric("verify.no_em", total(st(_).noEm), "count"),
      Metric("verify.em_early", total(st(_).emEarlyTerminated), "count"),
      Metric("verify.em_completed", total(st(_).emComputed), "count"),
      Metric("verify.em_finalize", total(st(_).finalizeEms), "count"),
      Metric("verify.em_avoided_ratio",
        (total(st(_).noEm) + total(st(_).emEarlyTerminated)) / survivors, "ratio"),
      Metric("fanout.wall_ms", mean(x => ms(x.wallNs)), "ms"),
      Metric("fanout.queue_wait_ms", mean(x => ms(x.queueWaitNs)), "ms"),
      Metric("fanout.partition_ms_max", mean(x => ms(x.partitionMaxNs)), "ms"),
      Metric("fanout.partition_ms_sum", mean(x => ms(x.partitionSumNs)), "ms"),
      Metric("fanout.skew", mean(_.skew), "ratio"),
      Metric("fanout.merge_ms", mean(x => ms(x.mergeNs)), "ms"),
      Metric("trace.qps_untraced", n / (traces.map(_.untracedNs).sum / 1e9), "queries/s"),
      Metric("trace.qps_traced", n / (traces.map(_.wallNs).sum / 1e9), "queries/s"),
      Metric("check.layer_share", layerShare, "ratio"),
      Metric("check.fanout_share", fanoutShare, "ratio"))
    // Probe + refine + verify must cover each partition's closure, and the
    // critical path's parts the whole fan-out, within a few percent.
    val checksOk = math.abs(1 - layerShare) <= Run.AddUpTolerance &&
      math.abs(1 - fanoutShare) <= Run.AddUpTolerance
    if (!checksOk) println(f"layer times do not add up: layers/closure $layerShare%.4f, " +
      f"fan-out parts/wall $fanoutShare%.4f")
    (metrics, traces.length, failed, checksOk)
  }

  /** Set-up split into its layers: each partition's [[SetCollection]] and
    * similarity index built again from the engines' own partitions.
    */
  private def setupLayers(eng: PartitionedEngines): Seq[Metric] = {
    val reps = (1 to Main.SetupReps).map { _ =>
      eng.parts.map { part =>
        val (c, coll) = Span.of(new SetCollection(part.records))
        val (_, index) = Span.of(new BruteForceSimilarityIndex(c.vocabulary, eng.similarity))
        (coll.wallNs, index.wallNs)
      }.reduce((a, b) => (a._1 + b._1, a._2 + b._2))
    }
    Seq(
      Metric("setup.collection_ms", median(reps.map(r => ms(r._1))), "ms"),
      Metric("setup.simindex_ms", median(reps.map(r => ms(r._2))), "ms"),
      Metric("setup.vocab_total", eng.parts.map(_.vocabulary.length).sum.toDouble, "count"))
  }

  private def queryRow(q: Query, pass: Int, t: QueryTrace, ok: Boolean): String = {
    def s(f: SearchStats => Long) = t.parts.map(x => f(x.result.stats)).sum
    Json.obj("pass" -> pass, "query" -> q.id, "size" -> q.size, "interval" -> q.interval,
      "exact" -> ok, "latency_ms" -> ms(t.untracedNs), "traced_ms" -> ms(t.wallNs),
      "probe_ms" -> t.sum(x => ms(x.probe.wallNs)), "refine_ms" -> t.sum(x => ms(x.refine.wallNs)),
      "verify_ms" -> t.sum(x => ms(x.verify.wallNs)),
      "probe_calls" -> t.parts.map(_.probeCalls).sum,
      "vocab_scanned" -> t.parts.map(_.vocabScanned).sum,
      "pairs_returned" -> t.parts.map(_.pairsReturned).sum,
      "stream_tuples" -> s(_.streamTuples), "candidates" -> s(_.candidates),
      "iub_pruned" -> s(_.iubPruned), "survivors" -> s(_.survivors), "no_em" -> s(_.noEm),
      "em_early" -> s(_.emEarlyTerminated), "em_completed" -> s(_.emComputed),
      "em_finalize" -> s(_.finalizeEms))
  }

  private def environment(trace: Boolean): String = {
    val rt = ManagementFactory.getRuntimeMXBean
    Json.obj(
      "workload" -> wl.name, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "jvm" -> s"${rt.getVmName} ${rt.getVmVersion}",
      "jvm_args" -> rt.getInputArguments.asScala.mkString(" "),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      // PartitionedEngines sizes its pool as min(16, partitions).
      "partitions" -> wl.partitions, "harness_pool_threads" -> math.min(16, wl.partitions),
      "reduced_graphs" -> wl.reducedGraphs, "k" -> params.k, "alpha" -> params.alpha,
      "timeout_ms" -> params.timeoutMs, "sample_queries" -> sample.length,
      "setup_reps" -> Main.SetupReps, "warmup_seconds" -> Main.WarmupSeconds,
      "warmup_queries" -> warmupQueries,
      "reference_fingerprint" -> references.fingerprint)
  }

  private def report(metrics: Seq[Metric], attempted: Int, failed: Int, checksOk: Boolean,
                     trace: Boolean, gc: (Long, Long)): Boolean = {
    val executions = if (trace) 2 * attempted else attempted
    val all = if (!trace) metrics else metrics ++ Seq(
      Metric("jvm.gc_ms", gc._1.toDouble / executions, "ms"),
      Metric("jvm.gc_count", gc._2.toDouble / executions, "count"))
    val env = environment(trace)
    println(s"environment $env")
    all.foreach(m => println(f"${m.name}%-24s ${m.value}%14.4f ${m.unit}"))
    println(f"failed_frac ${failed.toDouble / attempted}%.4f ratio ($failed of $attempted)")
    val out = new File(dir, s"out/${wl.name}-seed$seed-trace${if (trace) 1 else 0}.jsonl")
    out.getParentFile.mkdirs()
    val w = new PrintWriter(out, "UTF-8")
    try { w.println(env); rows.foreach(w.println) } finally w.close()
    val correct = failed == 0 && checksOk
    println(Json.obj("correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> all.map(m => m.name -> Map("value" -> m.value, "unit" -> m.unit)).toMap))
    correct
  }
}

object Run {
  val AddUpTolerance = 0.05

  /** One traced execution: its partitions' traces, the wall time of the
    * untraced run of the same query, and the traced `run` call from `t0` to
    * `t1`.
    */
  final case class QueryTrace(
      parts: Seq[PartitionTrace], untracedNs: Long, t0: Long, t1: Long) {
    def wallNs: Long = t1 - t0
    def sum(f: PartitionTrace => Double): Double = parts.map(f).sum
    def queueWaitNs: Long = parts.map(_.startNs).max - t0
    def partitionMaxNs: Long = parts.map(_.closureNs).max
    def partitionSumNs: Long = parts.map(_.closureNs).sum
    def mergeNs: Long = t1 - parts.map(_.endNs).max
    def skew: Double = partitionMaxNs / (partitionSumNs.toDouble / parts.length)
  }
}

/** Minimal JSON rendering for the result line and the per-query rows. */
object Json {
  def obj(fields: (String, Any)*): String = render(fields)

  private def render(v: Any): String = v match {
    case s: String          => quote(s)
    case b: Boolean         => b.toString
    case d: Double          => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Number          => n.toString
    case m: Map[_, _]       => render(m.toSeq.sortBy(_._1.toString).map { case (k, x) => k.toString -> x })
    case fs: Seq[_]         => fs.map { case (k, x) => s"${quote(k.toString)}: ${render(x)}" }
                                 .mkString("{", ", ", "}")
    case other              => quote(other.toString)
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}
