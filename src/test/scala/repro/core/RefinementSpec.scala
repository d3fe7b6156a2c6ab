package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Invariants of the refinement phase (Alg. 1): no false negatives, sound
  * bounds, correct candidate admission.
  */
class RefinementSpec extends AnyFunSuite {

  private def runRefinement(f: TestData.Fixture, query: Array[String],
                            k: Int, alpha: Double): RefinementOutput = {
    val coll = new SetCollection(f.records)
    val idx = new BruteForceSimilarityIndex(coll.vocabulary, f.simFn)
    val stream = new TokenStream(query, idx, alpha)
    Refinement.run(coll.records, coll.inverted, stream, query,
      KoiosParams(k, alpha), deadlineNanos = 0L)
  }

  test("candidates are exactly the sets with non-zero semantic overlap") {
    val rng = new Random(60)
    for (_ <- 1 to 20) {
      val f = TestData.fixture(rng)
      val query = TestData.randomQuery(rng, f)
      val out = runRefinement(f, query, k = 3, alpha = 0.7)
      val nonZero = Reference.allScores(f.records, query.toSeq, f.simFn, 0.7).length
      assert(out.candidates == nonZero,
        s"admitted ${out.candidates} candidates but $nonZero sets have SO > 0")
    }
  }

  test("survivors are a superset of the true top-k (no false negatives)") {
    val rng = new Random(61)
    for (trial <- 1 to 40) {
      val f = TestData.fixture(rng)
      val query = if (trial % 2 == 0) TestData.randomQuery(rng, f) else TestData.corpusQuery(rng, f)
      val k = 1 + rng.nextInt(5)
      val alpha = Seq(0.5, 0.7, 0.8, 0.9)(rng.nextInt(4))
      val out = runRefinement(f, query, k, alpha)
      val thetaStar = Reference.thetaKStar(f.records, query.toSeq, f.simFn, alpha, k)
      val mustKeep = Reference.allScores(f.records, query.toSeq, f.simFn, alpha)
        .filter(_.score > thetaStar + 1e-9) // strictly-above sets can never be pruned
        .map(_.id)
        .toSet
      val kept = out.survivors.map(s => f.records(s.idx).id).toSet
      assert(mustKeep.subsetOf(kept),
        s"trial $trial: pruned required ids ${mustKeep -- kept}")
    }
  }

  test("final bounds bracket the true SO: lb ≤ SO ≤ ub") {
    // At stream end lb is the complete greedy matching, so it is also at
    // least half the optimum (Lemma 3).
    val rng = new Random(62)
    var checked = 0
    for (_ <- 1 to 30) {
      val f = TestData.fixture(rng)
      val query = TestData.randomQuery(rng, f)
      for (alpha <- Seq(0.5, 0.7, 0.8)) {
        val out = runRefinement(f, query, k = 3, alpha = alpha)
        out.survivors.foreach { sv =>
          val so = Matching.semanticOverlapDirect(
            query, f.records(sv.idx).tokens, f.simFn, alpha)
          assert(sv.lb <= so + 1e-9,
            s"set ${sv.idx}: lb ${sv.lb} exceeds SO $so")
          assert(sv.lb >= so / 2.0 - 1e-9,
            s"set ${sv.idx}: lb ${sv.lb} below SO/2 = ${so / 2.0}")
          assert(sv.ub >= so - 1e-9,
            s"set ${sv.idx}: ub ${sv.ub} below SO $so")
          checked += 1
        }
      }
    }
    assert(checked > 0)
  }

  test("greedy lb is suboptimal where Hungarian is not (paper Ex. 2 shape)") {
    // Greedy takes (q1,c1) = 0.97, blocking both 0.96 and 0.95; the optimum
    // crosses: (q1,c2) + (q2,c1) = 0.95 + 0.96.
    val coll = new SetCollection(IndexedSeq(SetRecord(0L, Seq("c1", "c2"))))
    val idx = new PrecomputedSimilarityIndex(Map(
      "q1" -> Array("c1" -> 0.97, "c2" -> 0.95),
      "q2" -> Array("c1" -> 0.96)))
    val query = Array("q1", "q2")
    val params = KoiosParams(1, 0.9)
    val out = Refinement.run(coll.records, coll.inverted, new TokenStream(query, idx, 0.9),
      query, params, deadlineNanos = 0L)
    assert(out.survivors.length == 1)
    val sv = out.survivors.head
    assert(math.abs(sv.lb - 0.97) < 1e-9, s"lb ${sv.lb}")
    assert(math.abs(sv.ub - 1.92) < 1e-9, s"ub ${sv.ub}")
    val so = PostProcessing.run(coll.records, out, query, params, deadlineNanos = 0L).results
    assert(so.map(_.id) == Seq(0L))
    assert(math.abs(so.head.score - 1.91) < 1e-9, s"SO ${so.head.score}")
  }

  test("lower bound is at least the vanilla overlap (§V initialization)") {
    val rng = new Random(63)
    for (_ <- 1 to 20) {
      val f = TestData.fixture(rng)
      val query = TestData.corpusQuery(rng, f)
      val out = runRefinement(f, query, k = 3, alpha = 0.8)
      out.survivors.foreach { sv =>
        val vanilla = query.toSet.intersect(f.records(sv.idx).tokens.toSet).size
        assert(sv.lb >= vanilla - 1e-9)
      }
    }
  }

  test("θ_lb never exceeds θ_k* (Lemma 4)") {
    val rng = new Random(64)
    for (_ <- 1 to 30) {
      val f = TestData.fixture(rng)
      val query = TestData.randomQuery(rng, f)
      val k = 1 + rng.nextInt(4)
      val out = runRefinement(f, query, k, 0.7)
      val thetaStar = Reference.thetaKStar(f.records, query.toSeq, f.simFn, 0.7, k)
      assert(out.topkLb.threshold <= thetaStar + 1e-9)
    }
  }

  test("candidate accounting: candidates = pruned + survivors") {
    val rng = new Random(65)
    for (_ <- 1 to 20) {
      val f = TestData.fixture(rng)
      val query = TestData.randomQuery(rng, f)
      val out = runRefinement(f, query, k = 2, alpha = 0.7)
      assert(out.candidates == out.iubPruned + out.survivors.length)
    }
  }

  test("edge cache holds every α-edge needed for verification") {
    val rng = new Random(66)
    val f = TestData.fixture(rng)
    val query = TestData.randomQuery(rng, f)
    val alpha = 0.7
    val out = runRefinement(f, query, k = 3, alpha = alpha)
    // Every (q, t) pair with sim ≥ α of a token in some set must be in the
    // table with its exact sim.
    for (t <- out.inverted.vocabulary; qi <- query.indices) {
      val s = f.simFn.sim(query(qi), t)
      if (s >= alpha) {
        val es = EdgeTables.edgesOf(out.edges, out.inverted.idOf(t))
        val hit = es.find(_._1 == qi)
        assert(hit.isDefined, s"missing edge ($qi, $t)")
        assert(math.abs(hit.get._2 - s) < 1e-9)
      }
    }
  }

  test("survivors arrive sorted by descending upper bound") {
    val rng = new Random(67)
    val f = TestData.fixture(rng, nSets = 60)
    val query = TestData.corpusQuery(rng, f)
    val out = runRefinement(f, query, k = 2, alpha = 0.7)
    val ubs = out.survivors.map(_.ub)
    assert(ubs == ubs.sorted(Ordering[Double].reverse))
  }

  test("empty query produces no candidates") {
    val rng = new Random(68)
    val f = TestData.fixture(rng)
    val out = runRefinement(f, Array.empty[String], k = 2, alpha = 0.7)
    assert(out.candidates == 0)
    assert(out.survivors.isEmpty)
  }

  /** One refinement input of the differential's random workload. */
  private final class Run(val ctx: String, val f: TestData.Fixture, val coll: SetCollection,
                          val index: SimilarityIndex, val query: Array[String],
                          val params: KoiosParams) {
    def stream: TokenStream = new TokenStream(query, index, params.alpha)
  }

  /** `trials` random fixtures (noise 0 gives identical vectors within a
    * cluster: similarities tied at 1), each with six queries, every α, and k
    * cycling through 1..5 and one above the candidate count.
    */
  private def randomRuns(seed: Int, trials: Int): Iterator[Run] = {
    val rng = new Random(seed)
    val alphas = Seq(0.5, 0.7, 0.8, 0.9)
    (1 to trials).iterator.flatMap { trial =>
      val f = TestData.fixture(rng, nSets = 10 + rng.nextInt(110), clusters = 3 + rng.nextInt(12),
        maxCard = 2 + rng.nextInt(14), noise = Seq(0.0, 0.1, 0.25, 0.5)(trial % 4))
      val coll = new SetCollection(f.records)
      val index = new BruteForceSimilarityIndex(coll.vocabulary, f.simFn)
      val set = TestData.corpusQuery(rng, f)
      val queries = Seq(
        "empty" -> Array.empty[String],
        "|Q| = 1" -> Array(f.vocab(rng.nextInt(f.vocab.length))),
        "out of vocabulary" -> Array("oov-a", "oov-b", "oov-c"),
        "corpus tokens" -> TestData.randomQuery(rng, f),
        "a set" -> set,
        "a set and more" -> (set ++ TestData.randomQuery(rng, f) :+ "oov-a").distinct)
      for (((name, query), qi) <- queries.zipWithIndex; (alpha, ai) <- alphas.zipWithIndex) yield {
        val k = Seq(1, 2, 3, 4, 5, f.records.length + 1)((trial + qi + ai) % 6)
        new Run(s"trial $trial, $name query ${query.mkString("{", ",", "}")}, k=$k, alpha=$alpha",
          f, coll, index, query, KoiosParams(k, alpha))
      }
    }
  }

  test("refinement takes every decision of the TreeSet oracle (differential)") {
    var scanned = 0 // runs whose bucket scan pruned a set mid-stream
    for (run <- randomRuns(seed = 69, trials = 200)) {
      import run._
      val got = Refinement.run(coll.records, coll.inverted, stream, query, params, 0L)
      val want = RefinementOracle.run(coll.records, coll.inverted, stream, query, params, 0L)
      assert(got.survivors == want.survivors, ctx)
      assert(got.candidates == want.candidates, ctx)
      assert(got.iubPruned == want.iubPruned, ctx)
      assert(got.scanPruned == want.scanPruned, ctx)
      if (got.scanPruned > 0) scanned += 1
      assert(got.streamTuples == want.streamTuples, ctx)
      assert(got.topkLb.threshold == want.thetaLb, ctx)
      assert(got.timedOut == want.timedOut, ctx)
      assert(EdgeTables.byToken(coll.inverted, got.edges) ==
        want.edgeCache.view.mapValues(_.toSeq).toMap, ctx)
    }
    assert(scanned > 0, "no run pruned a set in the bucket scan")
  }

  test("AllCandidates and Refinement hand verification the same edge table") {
    var edged = 0 // runs with at least one edge
    for (run <- randomRuns(seed = 72, trials = 40)) {
      import run._
      val koios = Refinement.run(coll.records, coll.inverted, stream, query, params, 0L)
      val all = AllCandidates.run(coll.records, coll.inverted, stream, query, 0L)
      val want = EdgeTables.byToken(coll.inverted, koios.edges)
      assert(EdgeTables.byToken(coll.inverted, all.edges) == want, ctx)
      assert(all.streamTuples == koios.streamTuples, ctx)
      if (want.nonEmpty) edged += 1
    }
    assert(edged > 0, "no run streamed an edge")
  }

  test("after every stream tuple the oracle's bounds bracket SO and pruned sets are below θ_k*") {
    var steps = 0
    var prunedMidStream = 0
    var prunedAtEnd = 0
    for (run <- randomRuns(seed = 71, trials = 60)) {
      import run._
      val so = f.records.map(r => Matching.semanticOverlapDirect(query, r.tokens, f.simFn, params.alpha))
      val positive = so.filter(_ > 0.0).sorted(Ordering[Double].reverse)
      val thetaStar = if (positive.length < params.k) 0.0 else positive(params.k - 1)
      def belowThetaStar(pruned: Seq[Int], where: String): Unit = pruned.foreach { idx =>
        assert(so(idx) < thetaStar + Matching.PruneEps,
          s"$ctx: set $idx pruned $where with SO ${so(idx)}, θ_k* $thetaStar")
      }
      RefinementOracle.run(coll.records, coll.inverted, stream, query, params, 0L,
        new RefinementObserver {
          override def step(s: Double, thetaLb: Double, live: => Iterable[LiveBounds],
                            pruned: Seq[Int]): Unit = {
            steps += 1
            assert(thetaLb <= thetaStar + 1e-9, s"$ctx: θ_lb $thetaLb above θ_k* $thetaStar")
            live.foreach { b =>
              assert(b.lb <= so(b.idx) + 1e-9, s"$ctx: set ${b.idx} lb ${b.lb} above SO ${so(b.idx)}")
              assert(so(b.idx) <= b.ubScore + b.m * s + 1e-9,
                s"$ctx: set ${b.idx} SO ${so(b.idx)} above iUB ${b.ubScore} + ${b.m}·$s")
            }
            belowThetaStar(pruned, "mid-stream")
            prunedMidStream += pruned.length
          }
          override def end(thetaLb: Double, pruned: Seq[Int]): Unit = {
            assert(thetaLb <= thetaStar + 1e-9, s"$ctx: θ_lb $thetaLb above θ_k* $thetaStar")
            belowThetaStar(pruned, "at stream end")
            prunedAtEnd += pruned.length
          }
        })
    }
    assert(steps > 0 && prunedMidStream > 0 && prunedAtEnd > 0,
      s"steps $steps, pruned mid-stream $prunedMidStream, at stream end $prunedAtEnd")
  }
}
