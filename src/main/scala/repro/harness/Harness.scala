package repro.harness

import java.util.concurrent.Executors
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.Random

import repro.core._
import repro.data.SemanticDataset

/** Driver-side scale-out mirror of §VI: the repository is randomly split
  * into `p` partitions, Koios (or a baseline) runs on each partition, and the
  * per-partition top-k lists are merged. By default the partitions run on a
  * thread pool (the paper's single-machine setup), so reported response
  * times measure the algorithm, not job-scheduling overhead;
  * [[repro.dist.KoiosSpark]] runs the same protocol with Spark tasks as the
  * executor, and is validated against the pool in tests.
  *
  * As in the paper (§IV), one similarity index covers the whole vocabulary:
  * `run` probes it once per query and every partition reads the shared
  * neighbour lists through a [[PartitionView]].
  */
final class PartitionedEngines(ds: SemanticDataset, partitions: Int, seed: Long = 42L,
                               simOverride: Option[TokenSimilarity] = None) {

  val parts: IndexedSeq[SetCollection] = {
    val shuffled = new Random(seed).shuffle(ds.sets)
    (0 until partitions).map { p =>
      new SetCollection(shuffled.zipWithIndex.collect {
        case (r, i) if i % partitions == p => r
      })
    }
  }
  private val simFn: TokenSimilarity =
    simOverride.getOrElse(new EmbeddingCosineSimilarity(ds.embeddings))
  // The union of the partition vocabularies (one partition's is already it).
  private val vocabulary: Array[String] =
    if (parts.length == 1) parts.head.vocabulary
    else parts.iterator.flatMap(_.vocabulary).distinct.toArray
  // Jaccard gets the prefix-filter index (the paper's §VIII-B setup, where
  // the token stream comes from set-similarity-join techniques); embeddings
  // get the exact brute-force index (the Faiss substitute).
  private val index: SimilarityIndex = simFn match {
    case j: JaccardQGramSimilarity => new QGramPrefixIndex(vocabulary, j)
    case _                         => new BruteForceSimilarityIndex(vocabulary, simFn)
  }

  private val threads = math.min(16, partitions)
  private val pool = Executors.newFixedThreadPool(threads)
  private implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)

  def similarity: TokenSimilarity = simFn

  /** Probes the query's distinct tokens once, in one chunk per pool thread,
    * then has `execute` run `engineOf(partition, view)` on every partition
    * (the pool by default; Spark tasks in [[repro.dist.KoiosSpark]]) and
    * merges with [[SearchResult.merge]]. The merged `probeMs` is the shared
    * probe's wall time plus the slowest partition's stream build. `wallMs` is
    * the measured wall clock.
    */
  def run(query: Seq[String], params: KoiosParams,
          engineOf: (SetCollection, SimilarityIndex) => Seq[String] => SearchResult,
          execute: (SetCollection => SearchResult) => Seq[SearchResult] = onPool)
      : (Seq[ScoredSet], SearchStats, Double) = {
    val t0 = System.nanoTime()
    val tokens = query.distinct.toArray
    // Whole groups of four: the brute-force kernel scores four tokens a pass.
    val chunk = math.max(4, ((tokens.length + threads - 1) / threads + 3) / 4 * 4)
    val probes = tokens.grouped(chunk).map(c => Future(index.neighborsAll(c, params.alpha))).toVector
    val probed = tokens.iterator.zip(probes.iterator.flatMap(awaited(_).iterator)).toMap
    val probeMs = (System.nanoTime() - t0) / 1e6
    val results = execute(c => engineOf(c, new PartitionView(probed, params.alpha, c))(query))
    val wallMs = (System.nanoTime() - t0) / 1e6
    val merged = SearchResult.merge(results, params.k)
    (merged.topk, merged.stats.copy(probeMs = probeMs + merged.stats.probeMs), wallMs)
  }

  // Starts every task, then awaits each in order: no callback is chained on
  // a future, so a failed task leaves nothing for `shutdown` to reject.
  private def onPool(search: SetCollection => SearchResult): Seq[SearchResult] =
    parts.map(c => Future(search(c))).map(awaited)

  private def awaited[A](f: Future[A]): A = Await.result(f, Duration.Inf)

  def runKoios(query: Seq[String], params: KoiosParams): (Seq[ScoredSet], SearchStats, Double) =
    run(query, params, (c, i) => q => new KoiosEngine(c, i).search(q, params))

  def runBaseline(query: Seq[String], params: KoiosParams): (Seq[ScoredSet], SearchStats, Double) =
    run(query, params, (c, i) => q => new BaselineEngine(c, i).search(q, params))

  def shutdown(): Unit = pool.shutdown()
}

/** One partition's view of a query's shared probe: the neighbour lists of
  * the index over the whole vocabulary, keeping the tokens the partition
  * contains. This is exactly what an index over the partition's own
  * vocabulary returns: the scores are computed by the same code, a token
  * outside the partition has no posting list there, and dropping entries
  * from a list sorted by (−sim, token) keeps that order. Every engine asks
  * only for the query's distinct tokens at the run's α, which the probe
  * covered; any other token or α throws `IllegalArgumentException`.
  */
private final class PartitionView(probed: Map[String, Array[(String, Double)]], alpha: Double,
                                  part: SetCollection)
    extends SimilarityIndex {
  override def neighbors(q: String, a: Double): Array[(String, Double)] = {
    require(a == alpha, s"α = $a was not probed; the run probed α = $alpha")
    probed.getOrElse(q, throw new IllegalArgumentException(s"token '$q' was not probed"))
      .filter(n => part.inverted.contains(n._1))
  }
}

/** Aggregated per-benchmark statistics (averages over queries, as §VIII). */
final case class Agg(
    queries: Int,
    candidates: Double,
    iubPruned: Double,
    survivors: Double,
    noEm: Double,
    emEarly: Double,
    em: Double,
    refinementSec: Double, // probe + candidate phase, the paper's refinement time
    postprocSec: Double,
    responseSec: Double,
    memMB: Double,
    timeouts: Int) {
  def iubPct: Double = if (candidates == 0) 0 else 100.0 * iubPruned / candidates
  def noEmPct: Double = if (survivors == 0) 0 else 100.0 * noEm / survivors
  def emEarlyPct: Double = if (survivors == 0) 0 else 100.0 * emEarly / survivors
}

object Agg {
  /** Averages over completed queries; timed-out queries are excluded from
    * time averages (the paper's protocol) but counted.
    */
  def of(runs: Seq[(SearchStats, Double)]): Agg = {
    val completed = runs.filterNot(_._1.timedOut)
    val base = if (completed.nonEmpty) completed else runs
    def avg(f: ((SearchStats, Double)) => Double): Double =
      if (base.isEmpty) 0.0 else base.map(f).sum / base.length
    Agg(
      queries = runs.length,
      candidates = avg(_._1.candidates.toDouble),
      iubPruned = avg(_._1.iubPruned.toDouble),
      survivors = avg(_._1.survivors.toDouble),
      noEm = avg(_._1.noEm.toDouble),
      emEarly = avg(_._1.emEarlyTerminated.toDouble),
      em = avg(_._1.emComputed.toDouble),
      refinementSec = avg(s => s._1.probeMs + s._1.refinementMs) / 1000.0,
      postprocSec = avg(_._1.postprocMs) / 1000.0,
      responseSec = avg(_._2) / 1000.0,
      memMB = avg(_._1.memBytes.toDouble) / (1024.0 * 1024.0),
      timeouts = runs.count(_._1.timedOut))
  }
}

/** Plain-text table output: printed and written under `bench_results/` of
  * the working directory.
  */
object Report {
  private val dir = new java.io.File("bench_results")

  def emit(name: String, lines: Seq[String]): Unit = {
    val text = lines.mkString("", "\n", "\n")
    println(text)
    dir.mkdirs()
    val f = new java.io.File(dir, s"$name.txt")
    val w = new java.io.PrintWriter(f)
    try w.print(text) finally w.close()
  }
}
