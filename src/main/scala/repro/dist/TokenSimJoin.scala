package repro.dist

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.TokenSimilarity

/** The distributed scan+filter stage of semantic overlap search as
  * DataFrames: vocabulary extraction, then a similarity UDF against the
  * (broadcast) query and the α filter. [[KoiosSpark.topK]] collects the
  * result into the similarity index its partitions stream from.
  */
object TokenSimJoin {

  /** Distinct vocabulary `D` of the repository: `(token)`. */
  def vocabulary(setsDf: DataFrame): DataFrame =
    SetStore.exploded(setsDf).select("token").distinct()

  /** Similarity table: one row per `(token, q_idx)` with `sim ≥ α` — the
    * distributed equivalent of probing the token index for every query
    * element. `simFn` and the query ship inside the UDF closure (Spark
    * broadcasts the task binary); identical tokens always score 1, so
    * out-of-vocabulary exact matches survive the filter.
    */
  def simTable(setsDf: DataFrame, query: Array[String], simFn: TokenSimilarity,
               alpha: Double): DataFrame = {
    val edgesUdf = udf { (token: String) =>
      val buf = Seq.newBuilder[(Int, Double)]
      var qi = 0
      while (qi < query.length) {
        val s = simFn.sim(query(qi), token)
        if (s >= alpha) buf += ((qi, s))
        qi += 1
      }
      buf.result()
    }
    vocabulary(setsDf)
      .select(col("token"), explode(edgesUdf(col("token"))).as("edge"))
      .select(col("token"), col("edge._1").as("q_idx"), col("edge._2").as("sim"))
  }
}
