package repro.dist

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.harness.PartitionedEngines

/** Distributed Koios (§VI scale-out): [[PartitionedEngines.run]] with one
  * Spark task per partition as the executor, so the answer and every count
  * are those of the thread pool on the same engines. The partitions are
  * cached on the executors once, by a local checkpoint, which also drops
  * them from the RDD's lineage: a query's tasks carry the probed lists, not
  * the sets, and build no index. A lost executor loses its partitions.
  */
final class KoiosSpark(spark: SparkSession, engines: PartitionedEngines) {

  private val parts =
    spark.sparkContext.parallelize(engines.parts, engines.parts.length).localCheckpoint()
  parts.count()

  /** The exact global top-k, the merged stats and the wall time in ms. */
  def topK(query: Seq[String], params: KoiosParams): (Seq[ScoredSet], SearchStats, Double) =
    engines.run(query, params, (c, index) => q => new KoiosEngine(c, index).search(q, params),
      search => parts.map(search).collect().toSeq)
}
