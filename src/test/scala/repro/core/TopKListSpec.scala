package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TopKListSpec extends AnyFunSuite {

  test("threshold is 0 until the list is full (Lemma 4 init)") {
    val l = new TopKList(3)
    assert(l.threshold == 0.0)
    l.update(1, 5.0)
    l.update(2, 4.0)
    assert(l.threshold == 0.0)
    l.update(3, 3.0)
    assert(l.threshold == 3.0)
  }

  test("threshold is the k-th largest current value") {
    val l = new TopKList(2)
    l.update(1, 1.0); l.update(2, 2.0); l.update(3, 3.0)
    assert(l.threshold == 2.0)
    l.update(4, 5.0)
    assert(l.threshold == 3.0)
  }

  test("raising a tracked id's value updates in place") {
    val l = new TopKList(2)
    l.update(1, 1.0); l.update(2, 2.0)
    l.update(1, 4.0)
    assert(l.threshold == 2.0)
    assert(l.entries.map(_._1) == Seq(1L, 2L))
  }

  test("update returns whether θ_lb changed") {
    val l = new TopKList(2)
    assert(!l.update(1, 1.0)) // list not yet full, θ stays 0
    assert(l.update(2, 2.0)) // full: θ 0 → 1
    assert(!l.update(3, 0.5)) // below bottom: no change
    assert(l.update(3, 3.0)) // evicts 1: θ 1 → 2
  }

  test("an evicted id can re-enter when its value grows") {
    val l = new TopKList(2)
    l.update(1, 1.0); l.update(2, 2.0); l.update(3, 3.0) // evicts 1
    l.update(1, 10.0)
    assert(l.entries.map(_._1).toSet == Set(1L, 3L))
    assert(l.threshold == 3.0)
  }

  test("matches a naive recomputation under random increasing updates") {
    val rng = new Random(50)
    for (k <- Seq(1, 3, 7)) {
      val l = new TopKList(k)
      val truth = scala.collection.mutable.HashMap.empty[Long, Double]
      for (_ <- 1 to 500) {
        val id = rng.nextInt(40).toLong
        val v = math.max(truth.getOrElse(id, 0.0), rng.nextDouble() * 10)
        truth(id) = v
        l.update(id, v)
        val expected =
          if (truth.size < k) 0.0 else truth.values.toSeq.sorted(Ordering[Double].reverse)(k - 1)
        assert(math.abs(l.threshold - expected) < 1e-12,
          s"k=$k: got ${l.threshold}, want $expected")
      }
    }
  }

  test("entries are descending") {
    val rng = new Random(51)
    val l = new TopKList(5)
    (1 to 50).foreach(i => l.update(i.toLong, rng.nextDouble()))
    val vs = l.entries.map(_._2)
    assert(vs == vs.sorted(Ordering[Double].reverse))
    assert(vs.length == 5)
  }

  test("matches a naive recomputation with frequent ties, large ids and re-entries") {
    val rng = new Random(52)
    for (k <- Seq(1, 3, 7, 64); base <- Seq(0L, Long.MaxValue - 200)) {
      val l = new TopKList(k)
      val truth = scala.collection.mutable.HashMap.empty[Long, Double]
      var reentries = 0
      for (step <- 1 to 2000) {
        val id = base + rng.nextInt(2 * k + 20)
        val old = truth.get(id)
        // Values on a coarse grid (five levels at a time, slowly rising, so
        // ties are frequent and evicted ids can climb back); an id's value
        // never falls.
        val v = math.max(old.getOrElse(0.0), 0.5 * (rng.nextInt(5) + step / 100))
        val thetaBefore = l.threshold
        if (old.isDefined && !l.entries.exists(_._1 == id) && v > thetaBefore) reentries += 1
        truth(id) = v
        val changed = l.update(id, v)
        val sorted = truth.values.toSeq.sorted(Ordering[Double].reverse)
        val expected = if (truth.size < k) 0.0 else sorted(k - 1)
        val ctx = s"k=$k base=$base step $step"
        assert(l.threshold == expected, ctx)
        val es = l.entries
        assert(es.length == l.size && l.size <= k, ctx)
        assert(es.map(_._2) == es.map(_._2).sorted(Ordering[Double].reverse), ctx)
        // The entries are the ids' current values and a top of their multiset.
        es.foreach { case (i, x) => assert(truth(i) == x, ctx) }
        assert(es.map(_._2) == sorted.take(k), ctx)
        assert(changed == (l.threshold != thetaBefore), ctx)
      }
      assert(reentries > 0, s"k=$k: no evicted id re-entered")
    }
  }

  test("a full list ignores updates at or below θ_lb, in the list or not") {
    val l = new TopKList(3)
    l.update(1, 1.0); l.update(2, 2.0); l.update(3, 3.0)
    val entries = l.entries
    // Not in the list: below θ_lb, and tied with it (a tie does not evict).
    assert(!l.update(4, 0.5))
    assert(!l.update(4, 1.0))
    // In the list: its own value, and one at θ_lb for an id above it.
    assert(!l.update(1, 1.0))
    assert(!l.update(3, 1.0))
    assert(l.entries == entries)
    assert(l.threshold == 1.0)
    // Just above θ_lb the new id evicts the minimum.
    assert(l.update(4, 1.5))
    assert(l.entries == Seq(3L -> 3.0, 2L -> 2.0, 4L -> 1.5))
  }

  test("matches a naive recomputation while growing to k = 1000") {
    val rng = new Random(53)
    val k = 1000
    val l = new TopKList(k)
    val truth = scala.collection.mutable.HashMap.empty[Long, Double]
    for (step <- 1 to 5000) {
      val id = rng.nextInt(1500).toLong
      val v = math.max(truth.getOrElse(id, 0.0), rng.nextInt(1000) / 100.0 + step / 500)
      val thetaBefore = l.threshold
      truth(id) = v
      val changed = l.update(id, v)
      val sorted = truth.values.toArray.sorted(Ordering[Double].reverse)
      val expected = if (truth.size < k) 0.0 else sorted(k - 1)
      assert(l.threshold == expected, s"step $step")
      assert(l.size == math.min(k, truth.size), s"step $step")
      assert(changed == (l.threshold != thetaBefore), s"step $step")
      if (step % 500 == 0) {
        val es = l.entries
        es.foreach { case (i, x) => assert(truth(i) == x, s"step $step") }
        assert(es.map(_._2) == sorted.take(k).toSeq, s"step $step")
      }
    }
    assert(truth.size > k)
  }
}
