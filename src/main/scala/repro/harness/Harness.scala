package repro.harness

import java.util.concurrent.Executors
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.Random

import repro.core._
import repro.data.SemanticDataset

/** Driver-side scale-out mirror of §VI: the repository is randomly split
  * into `p` partitions, Koios (or a baseline) runs on each partition on a
  * thread pool — the paper's single-machine setup — and the per-partition
  * top-k lists are merged. The Spark `mapPartitions` engine
  * ([[repro.dist.KoiosSpark]]) is the distributed twin of this harness and
  * is validated against it in tests; benches use this in-process version so
  * reported response times measure the algorithm, not job-scheduling
  * overhead.
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
  // Jaccard gets the prefix-filter index (the paper's §VIII-B setup, where
  // the token stream comes from set-similarity-join techniques); embeddings
  // get the exact brute-force index (the Faiss substitute).
  private val indexes: IndexedSeq[SimilarityIndex] = parts.map { c =>
    simFn match {
      case j: JaccardQGramSimilarity => new QGramPrefixIndex(c.vocabulary, j)
      case _                         => new BruteForceSimilarityIndex(c.vocabulary, simFn)
    }
  }

  private val pool = Executors.newFixedThreadPool(math.min(16, partitions))
  private implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)

  def similarity: TokenSimilarity = simFn

  /** Runs `engineOf(partition)` on every partition in parallel and merges
    * with [[SearchResult.merge]]. `wallMs` is the measured wall clock.
    */
  def run(query: Seq[String], params: KoiosParams,
          engineOf: (SetCollection, SimilarityIndex) => Seq[String] => SearchResult)
      : (Seq[ScoredSet], SearchStats, Double) = {
    val t0 = System.nanoTime()
    val futures = parts.indices.map { p =>
      Future(engineOf(parts(p), indexes(p))(query))
    }
    val results = Await.result(Future.sequence(futures), Duration.Inf)
    val wallMs = (System.nanoTime() - t0) / 1e6
    val merged = SearchResult.merge(results, params.k)
    (merged.topk, merged.stats, wallMs)
  }

  def runKoios(query: Seq[String], params: KoiosParams): (Seq[ScoredSet], SearchStats, Double) =
    run(query, params, (c, i) => q => new KoiosEngine(c, i).search(q, params))

  def runBaseline(query: Seq[String], params: KoiosParams, useIubFilter: Boolean = false)
      : (Seq[ScoredSet], SearchStats, Double) =
    run(query, params, (c, i) => q => new BaselineEngine(c, i, useIubFilter).search(q, params))

  def shutdown(): Unit = pool.shutdown()
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
    refinementSec: Double,
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
      refinementSec = avg(_._1.refinementMs) / 1000.0,
      postprocSec = avg(_._1.postprocMs) / 1000.0,
      responseSec = avg(_._2) / 1000.0,
      memMB = avg(_._1.memBytes.toDouble) / (1024.0 * 1024.0),
      timeouts = runs.count(_._1.timedOut))
  }
}

/** Plain-text table output: printed and appended under bench_results/. */
object Report {
  private val dir = new java.io.File("/root/repo/bench_results")

  def emit(name: String, lines: Seq[String]): Unit = {
    val text = lines.mkString("", "\n", "\n")
    println(text)
    dir.mkdirs()
    val f = new java.io.File(dir, s"$name.txt")
    val w = new java.io.PrintWriter(f)
    try w.print(text) finally w.close()
  }

  def row(cells: Seq[String], widths: Seq[Int]): String =
    cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", "| ", "|")
}
