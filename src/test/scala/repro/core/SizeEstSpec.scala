package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SizeEstSpec extends AnyFunSuite {

  test("string estimate grows with length") {
    assert(SizeEst.ofString("ab") < SizeEst.ofString("abcdefgh"))
    assert(SizeEst.ofString("") == 40L)
  }

  test("token stream estimate is linear in buffered pairs") {
    assert(SizeEst.ofTokenStream(0) == 0L)
    assert(SizeEst.ofTokenStream(100) == 2 * SizeEst.ofTokenStream(50))
  }

  test("edge cache estimate counts tokens and edges") {
    val small: collection.Map[String, Array[(Int, Double)]] =
      Map("t" -> Array((0, 0.9)))
    val large: collection.Map[String, Array[(Int, Double)]] =
      Map("t" -> Array((0, 0.9), (1, 0.8)), "u" -> Array((0, 0.85)))
    assert(SizeEst.ofEdgeCache(small) > 0)
    assert(SizeEst.ofEdgeCache(large) > SizeEst.ofEdgeCache(small))
  }

  test("candidate estimate grows with count and query length") {
    assert(SizeEst.ofCandidates(1000, 500, 100, 50, 8.0) > SizeEst.ofCandidates(1000, 500, 10, 50, 8.0))
    assert(SizeEst.ofCandidates(1000, 500, 100, 500, 8.0) > SizeEst.ofCandidates(1000, 500, 100, 50, 8.0))
  }

  test("candidate estimate is the allocated array widths") {
    // 25 bytes per record, 4 per vocabulary token, and per candidate one
    // 64-bit word per started 64 query positions and per started 64 elements.
    assert(SizeEst.ofCandidates(0, 0, 0, 10, 8.0) == 0L)
    assert(SizeEst.ofCandidates(1000, 0, 0, 10, 8.0) == 25000L)
    assert(SizeEst.ofCandidates(0, 1000, 0, 10, 8.0) == 4000L)
    assert(SizeEst.ofCandidates(0, 0, 1, 64, 64.0) == 16L)
    assert(SizeEst.ofCandidates(0, 0, 1, 65, 64.5) == 32L)
    // No term grows with records × |Q|.
    assert(SizeEst.ofCandidates(1000000, 0, 0, 1000, 8.0) == SizeEst.ofCandidates(1000000, 0, 0, 1, 8.0))
  }

  test("bucket estimate is 12 bytes per heap entry") {
    assert(SizeEst.ofBuckets(0) == 0L)
    assert(SizeEst.ofBuckets(1000) == 12000L)
  }

  test("post-processing estimate grows with survivors and k") {
    assert(SizeEst.ofPostProcessing(10, 1000, 0) > SizeEst.ofPostProcessing(10, 10, 0))
    assert(SizeEst.ofPostProcessing(100, 10, 0) > SizeEst.ofPostProcessing(10, 10, 0))
  }

  test("post-processing estimate counts the matching scratch of the largest matching") {
    // 8·n² bytes of padded matrix, 3 double, 5 int and 1 boolean arrays of n.
    assert(SizeEst.ofMatchingScratch(0) == 0L)
    assert(SizeEst.ofMatchingScratch(100) == 8L * 100 * 100 + 45L * 100)
    assert(SizeEst.ofPostProcessing(10, 10, 100) - SizeEst.ofPostProcessing(10, 10, 0) ==
      SizeEst.ofMatchingScratch(100))
  }
}
