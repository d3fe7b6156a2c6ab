package repro.harness

import repro.core._
import repro.fuzzy.SilkMothLite

/** One function per evaluation table: runs the experiment and renders a
  * plain-text table with the paper's numbers alongside ours. Shared by the
  * `bench` ScalaTest suites and the `jobs` spark-submit mains.
  */
object TableRuns {

  private def f1(d: Double): String = f"$d%.1f"
  private def f2(d: Double): String = f"$d%.2f"

  /** Table I — dataset characteristics (paper vs the lite profiles). */
  def tableI(): Seq[String] = {
    val header = Seq(
      "Table I: Characteristics of datasets (paper corpus vs lite profile)",
      f"${"dataset"}%-10s | ${"#Sets"}%22s | ${"MaxSize"}%18s | ${"AvgSize"}%18s | ${"#UniqElems"}%22s",
      "-" * 104)
    val rows = BenchSuite.datasets.map { case (name, ds) =>
      val (pSets, pMax, pAvg, pUniq) = PaperNumbers.tableI(name)
      f"$name%-10s | ${s"$pSets -> ${ds.sets.length}"}%22s | ${s"$pMax -> ${ds.maxSize}"}%18s | " +
        f"${s"$pAvg -> ${f1(ds.avgSize)}"}%18s | ${s"$pUniq -> ${ds.uniqueElements}"}%22s"
    }
    header ++ rows ++ Seq("", "format: paper -> measured")
  }

  /** Table II — average percentage of sets pruned per filter. */
  def tableII(): (Seq[String], Map[String, Agg]) = {
    val aggs = BenchSuite.datasets.map { case (name, _) =>
      name -> BenchSuite.agg(BenchSuite.koiosRuns(name))
    }.toMap
    val header = Seq(
      "Table II: Average percentage of sets pruned using filters",
      f"${"dataset"}%-10s | ${"iUB-Filter %"}%16s | ${"EM-Early-Term %"}%16s | ${"No-EM %"}%16s",
      "-" * 68)
    val rows = BenchSuite.datasets.map { case (name, _) =>
      val a = aggs(name)
      val (pIub, pEm, pNoEm) = PaperNumbers.tableII(name)
      f"$name%-10s | ${s"$pIub -> ${f1(a.iubPct)}"}%16s | ${s"$pEm -> ${f1(a.emEarlyPct)}"}%16s | " +
        f"${s"$pNoEm -> ${f1(a.noEmPct)}"}%16s"
    }
    (header ++ rows ++ Seq("", "format: paper -> measured;",
      "refinement % of candidates, post-processing % of survivors"), aggs)
  }

  /** Table III — average response time and memory, Koios vs Baseline. */
  def tableIII(): (Seq[String], Map[String, (Agg, Agg)]) = {
    val aggs = BenchSuite.datasets.map { case (name, _) =>
      name -> (BenchSuite.agg(BenchSuite.koiosRuns(name)),
        BenchSuite.agg(BenchSuite.baselineRuns(name)))
    }.toMap
    val header = Seq(
      "Table III: Average response time and memory footprint (paper -> measured)",
      f"${"dataset"}%-10s | ${"K refine s"}%16s | ${"K postproc s"}%16s | ${"K response s"}%16s | " +
        f"${"K alloc MB"}%16s | ${"B response s"}%16s | ${"B alloc MB"}%16s | ${"speedup"}%12s | t/o K,B",
      "-" * 150)
    val rows = BenchSuite.datasets.map { case (name, _) =>
      val (k, b) = aggs(name)
      val (pRef, pPost, pResp, pMem, pBResp, pBMem) = PaperNumbers.tableIII(name)
      val speedup = if (k.responseSec > 0) b.responseSec / k.responseSec else 0.0
      f"$name%-10s | ${s"$pRef -> ${f2(k.refinementSec)}"}%16s | ${s"$pPost -> ${f2(k.postprocSec)}"}%16s | " +
        f"${s"$pResp -> ${f2(k.responseSec)}"}%16s | ${s"$pMem -> ${f1(k.memMB)}"}%16s | " +
        f"${s"$pBResp -> ${f2(b.responseSec)}"}%16s | ${s"$pBMem -> ${f1(b.memMB)}"}%16s | " +
        f"${f1(speedup) + "x"}%12s | ${k.timeouts},${b.timeouts}"
    }
    (header ++ rows ++ Seq("",
      "paper timeout 2500 s (corpus 50-100x larger); ours 20 s; timed-out queries excluded from averages;",
      "alloc MB: heap bytes the partitions' searches allocate per query, garbage included (paper: footprint)"),
      aggs)
  }

  private def intervalTable(title: String, dataset: String,
                            paper: Seq[(String, Int, Int, Int, Int, Int)])
      : (Seq[String], Seq[(String, Agg)]) = {
    // The cached runs follow `queries(dataset)`: interval by interval.
    val runs = BenchSuite.koiosRuns(dataset).iterator
    val perInterval = BenchSuite.queriesByInterval(dataset).map { case (label, qs) =>
      label -> BenchSuite.agg(qs.map(_ => runs.next()))
    }
    val header = Seq(
      title,
      f"${"query card."}%-14s | ${"candidates"}%22s | ${"iUB-filtered"}%22s | ${"No-EM"}%14s | " +
        f"${"EM-early"}%14s | ${"EM"}%14s | ${"timeouts"}%8s",
      "-" * 131)
    val rows = perInterval.zip(paper).map { case ((label, a), (pLabel, pc, pi, pn, pe, pem)) =>
      f"$label%-14s | ${s"$pc -> ${f1(a.candidates)}"}%22s | ${s"$pi -> ${f1(a.iubPruned)}"}%22s | " +
        f"${s"$pn -> ${f1(a.noEm)}"}%14s | ${s"$pe -> ${f1(a.emEarly)}"}%14s | ${s"$pem -> ${f1(a.em)}"}%14s | " +
        f"${a.timeouts}%8d"
    }
    (header ++ rows ++ Seq("",
      s"paper intervals: ${paper.map(_._1).mkString(", ")} (original cardinalities; ours are scaled)",
      "timeouts: queries of the interval that hit the 20 s timeout; the counts average the other",
      "queries, or the timed-out queries' partial counts when every query timed out"),
      perInterval)
  }

  /** Table IV — OpenData pruning counts by query-cardinality interval. */
  def tableIV(): (Seq[String], Seq[(String, Agg)]) =
    intervalTable("Table IV: OpenData - #sets pruned by filters per query-cardinality interval",
      "OpenData", PaperNumbers.tableIV)

  /** Table V — WDC pruning counts by query-cardinality interval. */
  def tableV(): (Seq[String], Seq[(String, Agg)]) =
    intervalTable("Table V: WDC - #sets pruned by filters per query-cardinality interval",
      "WDC", PaperNumbers.tableV)

  /** §VIII-B — Koios vs SilkMoth-syntactic vs SilkMoth-semantic under 3-gram
    * Jaccard. SilkMoth is given the true θ_k* per the paper's protocol.
    */
  def fuzzyComparison(nQueries: Int = 4, timeoutMs: Long = 30000L)
      : (Seq[String], (Double, Double, Double)) = {
    val ds = BenchSuite.openData
    val jac = new JaccardQGramSimilarity(3)
    val alpha = 0.7 // 3-gram Jaccard between distinct synthetic tokens tops out ≈0.71
    val params = KoiosParams(k = 10, alpha = alpha, timeoutMs = timeoutMs)
    val repo = new SetCollection(ds.sets)
    val koiosEng = new PartitionedEngines(ds, BenchSuite.Partitions, simOverride = Some(jac))
    val smSyn = new SilkMothLite(repo, jac, alpha, syntactic = true)
    val smSem = new SilkMothLite(repo, jac, alpha, syntactic = false)

    // Small/medium queries only: the semantic variant scans the vocabulary.
    val queries = ds.sets.filter(s => s.size >= 20 && s.size <= 200).take(nQueries)

    def timed[A](body: => A): (A, Double) = {
      val t0 = System.nanoTime(); val r = body; (r, (System.nanoTime() - t0) / 1e6)
    }

    var (kSec, synSec, semSec) = (0.0, 0.0, 0.0)
    var (synTo, semTo) = (0, 0)
    queries.foreach { q =>
      val (kr, kMs) = timed(koiosEng.runKoios(q.tokens.toSeq, params))
      kSec += kMs / 1000.0
      val thetaStar = if (kr._1.size >= params.k) kr._1.last.score else 0.0
      val (synR, synMs) = timed(smSyn.thresholdSearchTimed(q.tokens.toSeq, thetaStar, timeoutMs))
      if (synR._2) synTo += 1 else synSec += synMs / 1000.0
      val (semR, semMs) = timed(smSem.thresholdSearchTimed(q.tokens.toSeq, thetaStar, timeoutMs))
      if (semR._2) semTo += 1 else semSec += semMs / 1000.0
    }
    val n = queries.length.toDouble
    val (pK, pSyn, pSem) = PaperNumbers.fuzzy
    val res = (kSec / n, if (n > synTo) synSec / (n - synTo) else timeoutMs / 1000.0,
      if (n > semTo) semSec / (n - semTo) else timeoutMs / 1000.0)
    val lines = Seq(
      "Sec VIII-B: Fuzzy search comparison, 3-gram Jaccard, OpenData profile (paper -> measured)",
      f"Koios:               $pK%6.1f s -> ${res._1}%8.3f s",
      f"SilkMoth-syntactic:  $pSyn%6.1f s -> ${res._2}%8.3f s   (timeouts: $synTo)",
      f"SilkMoth-semantic:   $pSem%6.1f s -> ${res._3}%8.3f s   (timeouts: $semTo)",
      "",
      "SilkMoth is given the true theta_k* (the paper's protocol); timed-out queries",
      "are excluded from averages, as in the paper.")
    (lines, res)
  }
}
