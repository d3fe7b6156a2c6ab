package repro.dist

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.TokenSimilarity

/** The distributed scan+filter stages of semantic overlap search as a
  * DataFrame pipeline: vocabulary extraction, a similarity UDF against the
  * (broadcast) query, the α filter, candidate generation via join, and
  * upper-bound seeds via aggregation. Every stage is Oracle-checkable with
  * plain SQL over its inputs.
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

  /** Candidate sets: every set containing ≥1 token of the similarity table
    * (non-zero semantic overlap, §III): `(id)`.
    */
  def candidates(setsDf: DataFrame, simTableDf: DataFrame): DataFrame =
    SetStore.exploded(setsDf)
      .join(simTableDf.select("token").distinct(), "token")
      .select("id")
      .distinct()

  /** Per-candidate upper-bound seeds `(id, card, ub)`:
    * `ub = Σ` of the top `min(|Q|, |C|)` per-token maximum similarities —
    * the final (stream-exhausted) iUB of DESIGN.md §1, computed as one
    * aggregation. Sound: any matching uses ≤ min(|Q|,|C|) candidate
    * elements, each contributing at most its max similarity.
    */
  def ubSeeds(setsDf: DataFrame, simTableDf: DataFrame, queryLen: Int): DataFrame = {
    val maxSim = simTableDf.groupBy("token").agg(max(col("sim")).as("msim"))
    val cappedSum = udf { (sims: Seq[Double], card: Int) =>
      sims.sorted(Ordering[Double].reverse).take(math.min(queryLen, card)).sum
    }
    SetStore.exploded(setsDf)
      .join(maxSim, "token")
      .groupBy(col("id"))
      .agg(collect_list(col("msim")).as("msims"))
      .join(setsDf.select(col("id"), size(col("tokens")).as("card")), "id")
      .select(col("id"), col("card"), cappedSum(col("msims"), col("card")).as("ub"))
  }
}
