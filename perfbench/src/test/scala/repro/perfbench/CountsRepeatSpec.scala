package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.harness.PartitionedEngines

/** The per-layer counts a later change may quote must repeat exactly: two
  * traced runs of one seed, each on freshly built engines, give identical
  * refinement and verification counts and probe work for every query.
  */
class CountsRepeatSpec extends AnyFunSuite {

  for (wl <- Workload.all) test(s"${wl.name}: counts repeat exactly for one seed") {
    val ds = wl.corpus()
    val queries = wl.sample(ds, seed = 1).groupBy(_.interval).toSeq.sortBy(_._1)
      .flatMap(_._2.take(2))

    def counts(): Seq[Seq[Any]] = {
      val eng = new PartitionedEngines(ds, wl.partitions)
      try queries.map { q =>
        val sink = new Array[PartitionTrace](wl.partitions)
        eng.run(q.tokens, wl.params, Tracer.traced(eng, wl.params, sink))
        sink.toSeq.flatMap { t =>
          Tracer.counts(t.result.stats) ++
            Seq[Any](t.probeCalls, t.vocabScanned, t.pairsReturned, t.thetaLbRefine)
        }
      } finally eng.shutdown()
    }

    val first = counts()
    assert(first.forall(_.nonEmpty))
    assert(counts() == first)
  }
}
