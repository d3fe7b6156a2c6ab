package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** Distributed top-k semantic overlap search (§VI scale-out).
  *
  * [[topK]] is **distributed Koios**: the similarity table is computed once
  * as a DataFrame (scan + UDF + α filter), collected and shipped to executors
  * as a [[PrecomputedSimilarityIndex]]; the repository is randomly
  * repartitioned and the full Koios filter stack runs per partition inside
  * `mapPartitions`; per-partition top-k lists (with finalized exact scores)
  * are merged on the driver. Exact: the global top-k is contained in the
  * union of per-partition top-k lists. Unlike the paper we do not share a
  * global θ_lb across partitions (no cheap shared state between Spark
  * tasks) — this costs pruning power, never correctness.
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
}
