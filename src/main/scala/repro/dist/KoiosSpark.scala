package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** Distributed top-k semantic overlap search (§VI scale-out).
  *
  * Two engines:
  *
  *  1. [[topK]] — **distributed Koios**: the similarity table is computed
  *     once as a DataFrame (scan + UDF + α filter), collected and shipped to
  *     executors as a [[PrecomputedSimilarityIndex]]; the repository is
  *     randomly repartitioned and the full Koios filter stack runs per
  *     partition inside `mapPartitions`; per-partition top-k lists (with
  *     finalized exact scores) are merged on the driver. Exact: the global
  *     top-k is contained in the union of per-partition top-k lists. Unlike
  *     the paper we do not share a global θ_lb across partitions (no cheap
  *     shared state between Spark tasks) — this costs pruning power, never
  *     correctness.
  *
  *  2. [[dataFramePipeline]] — the pure-DataFrame filter/verify pipeline:
  *     candidate pruning via an upper-bound aggregation against a greedy
  *     lower-bound sample θ (both sound), a Hungarian-verification UDF per
  *     surviving candidate, and a final top-k aggregation. With
  *     `verifyAll = true` the θ filter is skipped — the paper's Baseline as
  *     a distributed dataflow.
  */
object KoiosSpark {

  /** Collects the DataFrame similarity table into per-query-token neighbor
    * lists for executor-side token streams.
    */
  def collectSimIndex(simTableDf: DataFrame, query: Array[String]): PrecomputedSimilarityIndex = {
    val byQ = simTableDf.collect()
      .map(r => (r.getAs[Int]("q_idx"), (r.getAs[String]("token"), r.getAs[Double]("sim"))))
      .groupBy(_._1)
    new PrecomputedSimilarityIndex(
      query.indices.flatMap { qi =>
        byQ.get(qi).map(arr => query(qi) -> arr.map(_._2))
      }.toMap)
  }

  /** Distributed Koios. Returns the exact global top-k and the stats merged
    * by [[SearchResult.merge]].
    */
  def topK(spark: SparkSession, setsDf: DataFrame, query: Seq[String],
           simFn: TokenSimilarity, params: KoiosParams,
           numPartitions: Int): (Seq[ScoredSet], SearchStats) = {
    import spark.implicits._
    val q = query.distinct.toArray
    val simIdx = collectSimIndex(TokenSimJoin.simTable(setsDf, q, simFn, params.alpha), q)
    val bc = spark.sparkContext.broadcast(simIdx)

    val perPartition = setsDf
      .select("id", "tokens")
      .as[SetRow]
      .repartition(numPartitions)
      .mapPartitions { it =>
        val records = it.map(r => SetRecord(r.id, r.tokens)).toIndexedSeq
        if (records.isEmpty) Iterator.empty
        else {
          val engine = new KoiosEngine(new SetCollection(records), bc.value)
          Iterator.single(engine.search(q.toSeq, params))
        }
      }
      .collect()
      .toSeq

    val merged = SearchResult.merge(perPartition, params.k)
    (merged.topk, merged.stats)
  }

  /** Pure-DataFrame filter/verify pipeline. Returns `(id, so)` of the top-k,
    * descending (ties by id).
    *
    * @param thetaSampleFactor the greedy lower bound is computed for the
    *        `thetaSampleFactor · k` candidates with the largest upper bounds;
    *        θ = their k-th largest greedy score (≤ θ_k*, hence sound)
    * @param verifyAll skip the θ filter and verify every candidate (Baseline)
    */
  def dataFramePipeline(spark: SparkSession, setsDf: DataFrame, query: Seq[String],
                        simFn: TokenSimilarity, params: KoiosParams,
                        verifyAll: Boolean = false,
                        thetaSampleFactor: Int = 4): DataFrame = {
    val q = query.distinct.toArray
    val simTableDf = TokenSimJoin.simTable(setsDf, q, simFn, params.alpha)
    val ubs = TokenSimJoin.ubSeeds(setsDf, simTableDf, q.length)
    val withTokens = ubs.join(setsDf, "id")

    val soUdf = udf { (tokens: Seq[String]) =>
      Matching.semanticOverlapDirect(q, tokens.toArray, simFn, params.alpha)
    }

    val filtered =
      if (verifyAll) withTokens
      else {
        val greedyUdf = udf { (tokens: Seq[String]) =>
          Matching.greedyDirect(q, tokens.toArray, simFn, params.alpha)
        }
        val lbSample = withTokens
          .orderBy(desc("ub"), asc("id"))
          .limit(math.max(params.k, thetaSampleFactor * params.k))
          .select(greedyUdf(col("tokens")).as("lb"))
          .orderBy(desc("lb"))
          .limit(params.k)
          .collect()
          .map(_.getDouble(0))
        val theta = if (lbSample.length < params.k) 0.0 else lbSample.min
        withTokens.filter(col("ub") >= theta)
      }

    filtered
      .select(col("id"), soUdf(col("tokens")).as("so"))
      .filter(col("so") > 0.0)
      .orderBy(desc("so"), asc("id"))
      .limit(params.k)
  }
}
