package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{EmbeddingCosineSimilarity, KoiosParams}
import repro.data.SemanticData
import repro.dist.{KoiosSpark, SetStore}
import repro.harness.TableRuns

/** spark-submit entrypoints, one per evaluation table.
  *
  *   spark-submit --class repro.jobs.TableI  <jar>
  *   spark-submit --class repro.jobs.TableII <jar>   ... etc.
  *
  * Tables I–V run the same harness as `sbt "bench/test"` and print the table
  * (paper numbers → measured). [[DistributedKoios]] additionally exercises
  * the Spark engine end-to-end (DataFrame sim-table → mapPartitions Koios →
  * global top-k merge) on the WDC-lite profile.
  */
object TableI {
  def main(args: Array[String]): Unit = TableRuns.tableI().foreach(println)
}

object TableII {
  def main(args: Array[String]): Unit = TableRuns.tableII()._1.foreach(println)
}

object TableIII {
  def main(args: Array[String]): Unit = TableRuns.tableIII()._1.foreach(println)
}

object TableIV {
  def main(args: Array[String]): Unit = TableRuns.tableIV()._1.foreach(println)
}

object TableV {
  def main(args: Array[String]): Unit = TableRuns.tableV()._1.foreach(println)
}

object FuzzyComparison {
  def main(args: Array[String]): Unit = TableRuns.fuzzyComparison()._1.foreach(println)
}

/** Distributed top-k search over Spark: `args(0)` optionally picks the query
  * set id (default 0), `args(1)` the partition count (default 10).
  */
object DistributedKoios {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("koios-distributed")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val queryId = args.headOption.map(_.toLong).getOrElse(0L)
      val partitions = args.lift(1).map(_.toInt).getOrElse(10)
      val ds = SemanticData.generate(SemanticData.wdcLite)
      val setsDf = SetStore.toDF(spark, ds.sets).cache()
      val query = ds.sets.find(_.id == queryId).getOrElse(ds.sets.head).tokens
      val simFn = new EmbeddingCosineSimilarity(ds.embeddings)
      val t0 = System.nanoTime()
      val (topk, stats) = KoiosSpark.topK(spark, setsDf, query.toSeq, simFn,
        KoiosParams(k = 10, alpha = 0.8), partitions)
      val wallS = (System.nanoTime() - t0) / 1e9
      println(f"query set $queryId (|Q|=${query.length}) on ${ds.sets.length} sets, $partitions partitions")
      println(f"wall ${wallS}%.2f s | candidates ${stats.candidates} | iUB-pruned ${stats.iubPruned} | " +
        f"No-EM ${stats.noEm} | EM-early ${stats.emEarlyTerminated} | EM ${stats.emComputed}")
      println("top-k:")
      topk.foreach(r => println(f"  set ${r.id}%6d  SO = ${r.score}%.4f"))
    } finally spark.stop()
  }
}
