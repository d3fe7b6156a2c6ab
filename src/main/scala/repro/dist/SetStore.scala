package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.SetRecord

/** One repository row in DataFrame form. */
final case class SetRow(id: Long, tokens: Seq[String])

/** DataFrame ⇄ [[SetRecord]] conversions for the repository.
  *
  * The canonical schema is `(id: Long, tokens: Array[String])`; `explode`
  * gives the `(id, token)` shape the vocabulary scan of [[TokenSimJoin]]
  * operates on.
  */
object SetStore {

  def toDF(spark: SparkSession, sets: Seq[SetRecord]): DataFrame = {
    import spark.implicits._
    sets.map(r => SetRow(r.id, r.tokens.toSeq)).toDF()
  }

  /** Collects a repository DataFrame back to records (driver-side; tests). */
  def fromDF(df: DataFrame): IndexedSeq[SetRecord] = {
    df.select("id", "tokens").collect().toIndexedSeq.map { row =>
      SetRecord(row.getLong(0), row.getSeq[String](1))
    }
  }

  /** Exploded `(id, token)` view — input to the distributed scan+filter. */
  def exploded(setsDf: DataFrame): DataFrame = {
    import org.apache.spark.sql.functions._
    setsDf.select(col("id"), explode(col("tokens")).as("token"))
  }
}
