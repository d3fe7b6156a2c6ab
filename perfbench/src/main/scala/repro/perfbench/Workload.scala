package repro.perfbench

import scala.util.Random

import repro.core.{KoiosParams, SetRecord}
import repro.data.{DatasetProfile, SemanticData, SemanticDataset}
import repro.harness.BenchSuite

/** One benchmark query: a corpus set used as the query, with the
  * cardinality interval it was drawn from ("all" for uniform sampling).
  */
final case class Query(record: SetRecord, interval: String) {
  def id: Long = record.id
  def tokens: Seq[String] = record.tokens.toSeq
  def size: Int = record.size
}

/** A named workload: a lite corpus, a partition count, a verification kernel
  * and a query set.
  *
  * The query set is fixed: `perStratum` corpus sets per cardinality interval
  * (or uniformly), drawn once with [[Workload.QuerySeed]], so that exact
  * reference answers are computed once and kept in `perfbench/reference`,
  * and so that a run's figures do not depend on which queries a seed happened
  * to draw. With 4 of 8 queries per interval drawn by the run seed, the
  * median latency on OpenData spread by 22 % (quartile distance over median)
  * across five seeds. The run seed sets the order in which the queries run.
  */
final case class Workload(
    name: String,
    profile: DatasetProfile,
    partitions: Int,
    reducedGraphs: Boolean,
    intervals: Option[Seq[(Int, Int)]],
    perStratum: Int) {

  /** The end-to-end parameters of the paper's evaluation (§VIII-A3). */
  def params: KoiosParams = BenchSuite.Params.copy(reducedGraphs = reducedGraphs)

  def corpus(): SemanticDataset = SemanticData.generate(profile)

  /** The query set, in corpus order within each interval. */
  def queries(ds: SemanticDataset): IndexedSeq[Query] = (intervals match {
    case Some(iv) => SemanticData.sampleQueriesByInterval(ds, iv, perStratum, Workload.QuerySeed)
    case None     => Seq("all" -> SemanticData.sampleQueries(ds, perStratum, Workload.QuerySeed))
  }).flatMap { case (label, recs) => recs.map(Query(_, label)) }.toIndexedSeq

  /** The query set in the order the seed runs it. */
  def sample(ds: SemanticDataset, seed: Long): IndexedSeq[Query] =
    new Random(seed).shuffle(queries(ds))

  /** Highest percentile that leaves at least ten queries of one pass over the
    * sample above it. It depends only on the sample size, so a faster program
    * that fits more passes into a run reports the same percentile.
    */
  def tailPercentile(sampleSize: Int): Int = math.floor(100.0 * (1.0 - 10.0 / sampleSize)).toInt
}

object Workload {
  val QuerySeed = 20230401L

  /** Probe-heavy: ten partitions each probe their own vocabulary. */
  val OpenDataP10 = Workload("opendata-p10-reduced", SemanticData.openDataLite,
    partitions = 10, reducedGraphs = true, intervals = Some(BenchSuite.OdIntervals),
    perStratum = 4)

  /** Verification-heavy: the paper's full-matrix kernel on one partition. */
  val WdcP1 = Workload("wdc-p1-paper", SemanticData.wdcLite,
    partitions = 1, reducedGraphs = false, intervals = Some(BenchSuite.WdcIntervals),
    perStratum = 5)

  /** Refinement-heavy: many short queries, most of the corpus admitted. */
  val TwitterP1 = Workload("twitter-p1-reduced", SemanticData.twitterLite,
    partitions = 1, reducedGraphs = true, intervals = None,
    perStratum = 100)

  val all: Seq[Workload] = Seq(OpenDataP10, WdcP1, TwitterP1)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
