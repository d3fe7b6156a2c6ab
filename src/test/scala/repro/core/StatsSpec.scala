package repro.core

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private val a = SearchStats(candidates = 10, iubPruned = 6, survivors = 4,
    noEm = 1, emEarlyTerminated = 2, emComputed = 1, finalizeEms = 1,
    streamTuples = 100, probeMs = 4.0, refinementMs = 5.0, postprocMs = 7.0, memBytes = 1000,
    thetaLbFinal = 2.5)
  private val b = SearchStats(candidates = 3, iubPruned = 1, survivors = 2,
    noEm = 2, streamTuples = 10, probeMs = 8.0, refinementMs = 1.0, postprocMs = 2.0,
    memBytes = 500, thetaLbFinal = 4.0, timedOut = true)

  test("stats sum adds counts element-wise") {
    val s = a + b
    assert(s.candidates == 13)
    assert(s.iubPruned == 7)
    assert(s.survivors == 6)
    assert(s.noEm == 3)
    assert(s.emEarlyTerminated == 2)
    assert(s.emComputed == 1)
    assert(s.finalizeEms == 1)
    assert(s.streamTuples == 110)
    assert(s.memBytes == 1500)
  }

  test("stats sum adds times and takes the max θ_lb") {
    val s = a + b
    assert(math.abs(s.probeMs - 12.0) < 1e-12)
    assert(math.abs(s.refinementMs - 6.0) < 1e-12)
    assert(math.abs(s.postprocMs - 9.0) < 1e-12)
    assert(s.thetaLbFinal == 4.0)
  }

  test("timedOut propagates through sums") {
    assert((a + b).timedOut)
    assert(!(a + a).timedOut)
  }

  test("totalMs is probe + refinement + post-processing") {
    assert(math.abs(a.totalMs - 16.0) < 1e-12)
  }

  test("zero stats are the neutral element for counts") {
    val z = SearchStats()
    val s = a + z
    assert(s.candidates == a.candidates && s.survivors == a.survivors &&
      s.streamTuples == a.streamTuples)
  }

  test("merge of no partitions is the empty answer") {
    val m = SearchResult.merge(Seq.empty, 3)
    assert(m.topk.isEmpty)
    assert(m.stats == SearchStats())
  }

  test("merge orders ties across partitions by id and keeps k") {
    val p1 = SearchResult(Seq(ScoredSet(7L, 2.0), ScoredSet(2L, 1.0)), a)
    val p2 = SearchResult(Seq(ScoredSet(3L, 2.0), ScoredSet(1L, 1.0)), b)
    val m = SearchResult.merge(Seq(p1, p2), 3)
    assert(m.topk == Seq(ScoredSet(3L, 2.0), ScoredSet(7L, 2.0), ScoredSet(1L, 1.0)))
    assert(m.stats.candidates == 13 && m.stats.memBytes == 1500 && m.stats.timedOut)
    assert(m.stats.probeMs == 8.0 && m.stats.refinementMs == 5.0 &&
      m.stats.postprocMs == 7.0) // maxima, not sums
  }
}
