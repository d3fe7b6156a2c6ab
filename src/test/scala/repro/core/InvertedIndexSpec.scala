package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class InvertedIndexSpec extends AnyFunSuite {

  private val records = IndexedSeq(
    SetRecord(10L, Array("a", "b", "c")),
    SetRecord(11L, Array("b", "d")),
    SetRecord(12L, Array("a", "d", "e")))

  /** Posting list of `t`, empty for a token outside the vocabulary. */
  private def postings(idx: InvertedIndex, t: String): Seq[Int] =
    if (idx.idOf(t) < 0) Seq.empty else idx.postingsOf(idx.idOf(t)).toSeq

  test("postings contain exactly the sets holding each token") {
    val idx = InvertedIndex.build(records)
    assert(postings(idx, "a") == Seq(0, 2))
    assert(postings(idx, "b") == Seq(0, 1))
    assert(postings(idx, "d") == Seq(1, 2))
    assert(postings(idx, "e") == Seq(2))
  }

  test("unknown token has empty postings") {
    val idx = InvertedIndex.build(records)
    assert(idx.idOf("zzz") == -1)
    assert(postings(idx, "zzz").isEmpty)
    assert(!idx.contains("zzz"))
  }

  test("vocabulary is sorted and complete") {
    val idx = InvertedIndex.build(records)
    assert(idx.vocabulary.toSeq == Seq("a", "b", "c", "d", "e"))
    assert(idx.vocabularySize == 5)
  }

  test("random corpus: membership equivalence") {
    val rng = new Random(40)
    val recs = IndexedSeq.tabulate(50) { i =>
      SetRecord(i.toLong, rng.shuffle((0 until 30).map(j => s"w$j")).take(1 + rng.nextInt(10)))
    }
    val idx = InvertedIndex.build(recs)
    for (t <- idx.vocabulary) {
      val expected = recs.indices.filter(i => recs(i).tokens.contains(t))
      assert(postings(idx, t) == expected)
    }
    assert(idx.maxSetSize == recs.map(_.size).max)
  }

  test("empty repository") {
    val idx = InvertedIndex.build(IndexedSeq.empty)
    assert(idx.vocabularySize == 0)
    assert(idx.maxSetSize == 0)
  }

  test("SetRecord deduplicates tokens") {
    val r = SetRecord(1L, Seq("x", "y", "x", "z", "y"))
    assert(r.tokens.toSeq == Seq("x", "y", "z"))
    assert(r.size == 3)
  }

  test("SetRecord deduplicates array input and every fixture record") {
    assert(SetRecord(1L, Array("w", "w", "v")).tokens.toSeq == Seq("w", "v"))
    val f = TestData.fixture(new Random(57))
    assert(f.records.forall(r => r.tokens.distinct.length == r.size))
  }

  test("SetCollection rejects duplicate ids") {
    assertThrows[IllegalArgumentException] {
      new SetCollection(IndexedSeq(SetRecord(1L, Array("a")), SetRecord(1L, Array("b"))))
    }
  }
}
