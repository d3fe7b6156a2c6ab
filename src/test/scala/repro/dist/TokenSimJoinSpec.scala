package repro.dist

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core._
import scala.util.Random

/** The relational stages of the distributed engine — vocabulary, similarity
  * table and the repository's DataFrame form — against direct computation
  * over the same records.
  */
class TokenSimJoinSpec extends SparkSpec {

  private val rng = new Random(120)
  private lazy val fixture = TestData.fixture(rng, nSets = 30, clusters = 10)
  private lazy val setsDf: DataFrame = SetStore.toDF(spark, fixture.records).cache()
  private lazy val query: Array[String] = fixture.records(3).tokens
  private val alpha = 0.7
  private lazy val simTableDf =
    TokenSimJoin.simTable(setsDf, query, fixture.simFn, alpha).cache()

  test("vocabulary is DISTINCT over exploded tokens") {
    // Sorted sequences, not sets: a duplicate row would show.
    val vocab = TokenSimJoin.vocabulary(setsDf).collect().map(_.getString(0)).toSeq.sorted
    assert(vocab == fixture.records.flatMap(_.tokens).distinct.sorted)
  }

  test("simTable holds exactly the α-edges of the similarity function") {
    val rows = simTableDf.collect()
      .map(r => (r.getAs[String]("token"), r.getAs[Int]("q_idx"), r.getAs[Double]("sim")))
    val expected = (for {
      t <- fixture.records.flatMap(_.tokens).distinct
      qi <- query.indices
      s = fixture.simFn.sim(query(qi), t)
      if s >= alpha
    } yield (t, qi, s)).toSet
    assert(rows.toSet.map((x: (String, Int, Double)) => (x._1, x._2)) ==
      expected.map(x => (x._1, x._2)))
    val bySim = expected.map(x => (x._1, x._2) -> x._3).toMap
    rows.foreach { case (t, qi, s) => assert(math.abs(s - bySim((t, qi))) < 1e-9) }
  }

  test("SetStore round-trips records through a DataFrame") {
    val back = SetStore.fromDF(setsDf).sortBy(_.id)
    val orig = fixture.records.sortBy(_.id)
    assert(back.map(_.id) == orig.map(_.id))
    back.zip(orig).foreach { case (a, b) => assert(a.tokens.toSeq == b.tokens.toSeq) }
  }
}
