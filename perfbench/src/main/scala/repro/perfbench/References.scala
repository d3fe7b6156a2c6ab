package repro.perfbench

import java.io.{File, FileWriter, PrintWriter}
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.io.Source

import repro.core.{EmbeddingCosineSimilarity, KoiosParams, Reference, ScoredSet, SetRecord}
import repro.data.SemanticDataset

/** Exact top-k score lists from the brute-force [[Reference]], kept in
  * `reference/<workload>.tsv` under the benchmark directory.
  *
  * Each line is `<fingerprint> TAB <query id> TAB <scores>`. The fingerprint
  * hashes the whole corpus (sets and embeddings) together with k and α, so a
  * changed corpus or parameter set misses the cache and is recomputed; a
  * changed query sample misses on the query id. Missing entries are computed
  * with `Reference.topK` over the full corpus and appended to the file. The
  * engine under test is never consulted.
  */
final class References(file: File, ds: SemanticDataset, params: KoiosParams) {

  val fingerprint: String = References.fingerprint(ds, params)

  private val cached: Map[Long, Array[Double]] =
    if (!file.exists()) Map.empty
    else {
      val src = Source.fromFile(file, "UTF-8")
      try src.getLines().map(_.split('\t')).collect {
        case Array(fp, id, scores) if fp == fingerprint =>
          id.toLong -> (if (scores.isEmpty) Array.empty[Double] else scores.split(' ').map(_.toDouble))
      }.toMap
      finally src.close()
    }

  /** Reference scores for every query, computing (and storing) any missing. */
  def scoresFor(queries: Seq[SetRecord]): Map[Long, Array[Double]] = {
    val missing = queries.filterNot(q => cached.contains(q.id)).distinctBy(_.id)
    if (missing.isEmpty) cached
    else {
      val computed = References.compute(ds, missing, params)
      file.getParentFile.mkdirs()
      val out = new PrintWriter(new FileWriter(file, UTF_8, true))
      try computed.foreach { case (id, s) => out.println(s"$fingerprint\t$id\t${s.mkString(" ")}") }
      finally out.close()
      cached ++ computed
    }
  }
}

object References {

  /** Score multisets agree when they have the same size and, sorted, each
    * pair differs by at most `tol`.
    */
  def matches(got: Seq[ScoredSet], expected: Array[Double], tol: Double = 1e-9): Boolean = {
    val g = got.map(_.score).sorted(Ordering.Double.TotalOrdering.reverse)
    val e = expected.sorted(Ordering.Double.TotalOrdering.reverse)
    g.length == e.length && g.indices.forall(i => math.abs(g(i) - e(i)) <= tol)
  }

  def fingerprint(ds: SemanticDataset, params: KoiosParams): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def str(s: String): Unit = { md.update(s.getBytes(UTF_8)); md.update(0.toByte) }
    str(s"k=${params.k} alpha=${params.alpha}")
    ds.sets.foreach { r => str(r.id.toString); r.tokens.foreach(str); str("|") }
    ds.embeddings.toSeq.sortBy(_._1).foreach { case (t, v) =>
      str(t); v.foreach(x => str(java.lang.Float.floatToIntBits(x).toString))
    }
    md.digest().take(12).map(b => f"${b & 0xff}%02x").mkString
  }

  /** `Reference.topK` for each query, splitting the corpus into one chunk per
    * core and merging the chunks' top-k lists.
    */
  def compute(ds: SemanticDataset, queries: Seq[SetRecord], params: KoiosParams)
      : Map[Long, Array[Double]] = {
    val sim = new EmbeddingCosineSimilarity(ds.embeddings)
    val threads = Runtime.getRuntime.availableProcessors()
    val chunkSize = (ds.sets.length + threads - 1) / threads
    val chunks = ds.sets.grouped(chunkSize).toSeq
    val pool = Executors.newFixedThreadPool(threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try queries.map { q =>
      val parts = chunks.map(c => Future(Reference.topK(c, q.tokens.toSeq, sim, params.alpha, params.k)))
      val merged = Await.result(Future.sequence(parts), Duration.Inf).flatten
        .sortBy(r => (-r.score, r.id)).take(params.k)
      q.id -> merged.map(_.score).toArray
    }.toMap
    finally pool.shutdown()
  }
}
