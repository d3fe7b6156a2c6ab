package repro.harness

import repro.core._
import repro.data.{SemanticData, SemanticDataset}

/** Shared state for the per-table benches: datasets, query benchmarks and
  * cached Koios/Baseline runs (several tables read the same runs). All lazy —
  * generated once per JVM. Parameters follow §VIII-A3: k = 10, α = 0.8,
  * 10 partitions; the paper's 2500 s timeout scales to 20 s for our ~50–100×
  * smaller corpora.
  */
object BenchSuite {

  val Params: KoiosParams = KoiosParams(k = 10, alpha = 0.8, timeoutMs = 20000L)
  val Partitions = 10

  /** Cardinality intervals (§VIII-A2), scaled to the lite profiles' ranges. */
  val OdIntervals: Seq[(Int, Int)] =
    Seq((10, 100), (100, 200), (200, 350), (350, 550), (550, 750), (750, Int.MaxValue))
  val WdcIntervals: Seq[(Int, Int)] =
    Seq((20, 60), (60, 150), (150, 250), (250, 350), (350, Int.MaxValue))
  val QueriesPerInterval = 3
  val UniformQueries = 8

  lazy val dblp: SemanticDataset = SemanticData.generate(SemanticData.dblpLite)
  lazy val openData: SemanticDataset = SemanticData.generate(SemanticData.openDataLite)
  lazy val twitter: SemanticDataset = SemanticData.generate(SemanticData.twitterLite)
  lazy val wdc: SemanticDataset = SemanticData.generate(SemanticData.wdcLite)

  lazy val datasets: Seq[(String, SemanticDataset)] =
    Seq("DBLP" -> dblp, "OpenData" -> openData, "Twitter" -> twitter, "WDC" -> wdc)

  /** One dataset by name; generates only that corpus. */
  def dataset(name: String): SemanticDataset = name match {
    case "DBLP"     => dblp
    case "OpenData" => openData
    case "Twitter"  => twitter
    case "WDC"      => wdc
  }

  private val engineCache = scala.collection.mutable.HashMap.empty[String, PartitionedEngines]
  def engines(name: String): PartitionedEngines = synchronized {
    engineCache.getOrElseUpdate(name, new PartitionedEngines(dataset(name), Partitions))
  }

  private val queryCache =
    scala.collection.mutable.HashMap.empty[String, Seq[(String, Seq[SetRecord])]]

  /** Per-dataset query benchmark: stratified for the skewed corpora
    * (OpenData/WDC), uniform for DBLP/Twitter (§VIII-A2). Sampled once per
    * JVM, from that dataset only.
    */
  def queriesByInterval(name: String): Seq[(String, Seq[SetRecord])] = synchronized {
    queryCache.getOrElseUpdate(name, name match {
      case "DBLP" => Seq("all" -> SemanticData.sampleQueries(dblp, UniformQueries, seed = 101))
      case "Twitter" => Seq("all" -> SemanticData.sampleQueries(twitter, UniformQueries, seed = 103))
      case "OpenData" => SemanticData.sampleQueriesByInterval(openData, OdIntervals,
        QueriesPerInterval, seed = 102)
      case "WDC" => SemanticData.sampleQueriesByInterval(wdc, WdcIntervals,
        QueriesPerInterval, seed = 104)
    })
  }

  def queries(name: String): Seq[SetRecord] = queriesByInterval(name).flatMap(_._2)

  /** One cached query run: (query, stats, wallMs). */
  type Run = (SetRecord, SearchStats, Double)
  private val runCache = scala.collection.mutable.HashMap.empty[(String, String), Seq[Run]]

  /** Runs every query of dataset `name` once per JVM and engine. */
  private def cachedRuns(engine: String, name: String)(
      search: (PartitionedEngines, Seq[String]) => (Seq[ScoredSet], SearchStats, Double)): Seq[Run] =
    synchronized {
      runCache.getOrElseUpdate((engine, name), queries(name).map { q =>
        val (_, stats, wall) = search(engines(name), q.tokens.toSeq)
        (q, stats, wall)
      })
    }

  /** Cached Koios runs of one dataset, in `queries(name)` order. */
  def koiosRuns(name: String): Seq[Run] = cachedRuns("Koios", name)(_.runKoios(_, Params))

  /** Cached Baseline runs of one dataset (plain baseline, §VIII-A4). */
  def baselineRuns(name: String): Seq[Run] = cachedRuns("Baseline", name)(_.runBaseline(_, Params))

  def agg(runs: Seq[Run]): Agg =
    Agg.of(runs.map(r => (r._2, r._3)))
}

/** The paper's reported numbers, inlined next to ours in every table. */
object PaperNumbers {
  // Table I: #Sets, MaxSize, AvgSize, #UniqElems.
  val tableI: Map[String, (Int, Int, Double, Int)] = Map(
    "DBLP" -> (4246, 514, 178.7, 25159),
    "OpenData" -> (15636, 31901, 86.4, 179830),
    "Twitter" -> (27204, 151, 22.6, 72910),
    "WDC" -> (1014369, 10240, 30.6, 328357))

  // Table II: iUB %, EM-Early-Terminated %, No-EM %.
  val tableII: Map[String, (Double, Double, Double)] = Map(
    "DBLP" -> (91.0, 5.0, 9.2),
    "OpenData" -> (85.5, 2.1, 54.8),
    "Twitter" -> (53.5, 0.0, 1.4),
    "WDC" -> (89.2, 0.9, 9.8))

  // Table III: Koios refinement/postproc/response s + MB, baseline s + MB.
  val tableIII: Map[String, (Double, Double, Double, Double, Double, Double)] = Map(
    "DBLP" -> (0.3, 0.44, 0.83, 16.0, 211.0, 11.0),
    "OpenData" -> (7.19, 6.9, 18.6, 69.6, 101.0, 102.5),
    "Twitter" -> (0.2, 0.45, 0.7, 10.0, 518.0, 10.0),
    "WDC" -> (109.0, 34.3, 147.0, 1775.0, 1062.0, 885.0))

  // Table IV (OpenData): candidates, iUB-filtered, No-EM, EM-early, EM.
  val tableIV: Seq[(String, Int, Int, Int, Int, Int)] = Seq(
    ("10 - 750", 1132, 345, 88, 0, 699),
    ("750 - 1000", 2557, 2422, 85, 2, 48),
    ("1000 - 1500", 2699, 2571, 83, 4, 41),
    ("1500 - 2500", 3440, 3328, 84, 2, 26),
    ("2500 - 5000", 3560, 3451, 82, 4, 23),
    ("> 5000", 5706, 5502, 79, 5, 120))

  // Table V (WDC).
  val tableV: Seq[(String, Int, Int, Int, Int, Int)] = Seq(
    ("20 - 250", 124217, 60196, 74, 80, 63867),
    ("250 - 500", 189665, 186512, 90, 3, 3060),
    ("500 - 750", 262947, 261901, 85, 6, 953),
    ("750 - 1000", 274695, 273743, 83, 26, 843),
    ("> 1000", 402622, 402332, 84, 3, 203))

  // §VIII-B text: Koios, SilkMoth-syntactic, SilkMoth-semantic avg seconds.
  val fuzzy: (Double, Double, Double) = (72.0, 141.0, 400.0)
}
