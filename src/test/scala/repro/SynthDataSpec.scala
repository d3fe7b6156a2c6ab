package repro

import repro.data.SemanticData

/** Checks for the tokenSets corpus generator (the schema the Koios paper
  * evaluates on).
  */
class SynthDataSpec extends SparkSpec {

  test("tokenSets produces the repository schema (id, tokens)") {
    val df = SynthData.tokenSets(spark, SemanticData.tinyProfile)
    assert(df.columns.toSeq == Seq("id", "tokens"))
    assert(df.count() == SemanticData.tinyProfile.nSets)
  }

  test("tokenSets is deterministic in (profile, sf)") {
    val a = SynthData.tokenSets(spark, SemanticData.tinyProfile).collect().map(_.toString).sorted
    val b = SynthData.tokenSets(spark, SemanticData.tinyProfile).collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("tokenSets scale factor scales the set count") {
    val half = SynthData.tokenSets(spark, SemanticData.tinyProfile, sf = 0.5)
    assert(half.count() == SemanticData.tinyProfile.nSets / 2)
  }

  test("tokenSets ids are unique") {
    val df = SynthData.tokenSets(spark, SemanticData.tinyProfile)
    assert(df.select("id").distinct().count() == df.count())
  }
}
