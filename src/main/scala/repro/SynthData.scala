package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic set corpora in DataFrame form. */
object SynthData {

  /** Set corpora — the schema the Koios paper evaluates on: a repository of
    * token sets `(id: Long, tokens: Array[String])` with concept-clustered
    * synthetic embeddings (see [[repro.data.SemanticData]]). `sf` scales the
    * number of sets of the chosen profile; the profile's shape (cardinality
    * skew, vocabulary, token-frequency skew) is preserved.
    */
  def tokenSets(spark: SparkSession,
                profile: repro.data.DatasetProfile = repro.data.SemanticData.tinyProfile,
                sf: Double = 1.0): DataFrame = {
    val scaled = profile.copy(nSets = math.max(1, (profile.nSets * sf).toInt))
    repro.dist.SetStore.toDF(spark, repro.data.SemanticData.generate(scaled).sets)
  }
}
