package repro.perfbench

import org.apache.spark.BenchListenerBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.sparkmega.SparkMegaphone
import scala.collection.mutable

/** `spark-microbatch`: SparkMegaphone with 8 workers and 256 bins over seven
  * pre-generated batches of 50k rows on 125k keys, migrating the canonical
  * imbalance from batch 1 under all-at-once, batched and fluid. The loop is
  * closed: each batch starts when the previous one returned. A step is one
  * `processBatch` call; it is a migration step when it carries updates.
  */
final class SparkMicrobatch(seed: Long) extends Workload {
  import SparkMicrobatch._

  private var spark: SparkSession        = _
  private var batches: Seq[DataFrame]    = Nil
  private var expected: DataFrame        = _
  private val moves                      = SparkMegaphone.imbalance(Bins, Workers)

  val setupReps        = 5
  // Warm materialisations keep getting faster over the first few.
  override val setupWarmupReps = 4

  /** Batch materialisation; the first set-up also starts the SparkSession.
    * The previous repetition's cached data is dropped, untimed and blocking,
    * so that Spark does not remove it while the next one runs.
    */
  def setup(): Long = {
    batches.foreach(_.unpersist(blocking = true))
    if (expected != null) expected.unpersist(blocking = true)
    expected = null
    val t0 = System.nanoTime()
    if (spark == null) {
      spark = SparkSession.builder
        .master(s"local[$Cores]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.adaptive.enabled", "false")
        .getOrCreate()
      spark.sparkContext.setLogLevel("ERROR")
    }
    batches = (0 until NumBatches).map { i =>
      SynthData.uniformKeys(spark, Rows, Keys, seed = seed * 64 + 2 * i)
        .select(col("k") as "key", lit(1L) as "value")
        .cache()
    }
    batches.foreach(_.count())
    System.nanoTime() - t0
  }

  /** Per-key count over all batches: what the final state must hold. */
  private def expectedCounts: DataFrame = {
    if (expected == null)
      expected = batches.reduce(_ union _).groupBy("key").agg(count(lit(1)) as "want").cache()
    expected
  }

  /** One strategy's batches warm the fold and the migration paths; a whole
    * pass would double the run.
    */
  override def warmup(): Pass = run(Seq("batched"), traced = false).copy(digest = "")

  // Rotate the strategy order so no strategy always absorbs the first run.
  def pass(index: Int, traced: Boolean): Pass =
    run(Strategies.indices.map(i => Strategies((i + index) % Strategies.size)), traced)

  private def run(order: Seq[String], traced: Boolean): Pass = {
    val spans    = new Spans
    val checks   = mutable.ArrayBuffer.empty[(String, Boolean)]
    val layer    = mutable.LinkedHashMap.empty[String, Double]
    val steps    = mutable.ArrayBuffer.empty[Step]
    val updated  = mutable.LinkedHashMap.empty[String, Seq[Long]]
    val moved    = mutable.LinkedHashMap.empty[String, Seq[Long]]

    val sc       = spark.sparkContext
    val listener = if (traced) new BatchListener else null
    if (traced) sc.addSparkListener(listener)
    val perBatch = mutable.ArrayBuffer.empty[(Boolean, BatchListener.Totals, SparkMegaphone#BatchResult, Double)]
    val skews    = mutable.ArrayBuffer.empty[Double]

    for (strategy <- order) {
      val sched = SparkMegaphone.schedule(strategy, moves, MigrateAt, NumBatches - MigrateAt - 1)
      val eng   = new SparkMegaphone(spark, Bins, Workers)
      val res = batches.zipWithIndex.map { case (b, i) =>
        val updates = sched.getOrElse(i, Nil)
        if (traced) { BenchListenerBus.drain(sc); listener.mark() }
        val (r, ns) = spans(eng.processBatch(b, updates))
        steps += Step(ns / 1e6, updates.nonEmpty)
        if (traced) { BenchListenerBus.drain(sc); perBatch += ((updates.nonEmpty, listener.sinceMark(), r, ns / 1e6)) }
        r
      }
      updated(strategy) = res.map(_.updatedRows)
      moved(strategy) = res.map(_.movedRows)

      val wrong = eng.state.select("key", "cnt")
        .join(expectedCounts, Seq("key"), "full_outer")
        .filter(!(col("cnt") <=> col("want")))
        .count()
      Check(checks, s"$strategy: final per-key state equals the per-key count over all batches", wrong == 0,
        s"$wrong keys differ")
      if (traced) {
        val perPart = eng.state.groupBy(spark_partition_id()).count().collect().map(_.getLong(1))
        skews += (if (perPart.isEmpty) 0.0 else perPart.max / (perPart.sum.toDouble / Workers))
      }
      eng.close()
    }
    Check(checks, "updatedRows agrees across strategies", updated.values.toSet.size == 1,
      updated.map { case (s, u) => s"$s=${u.mkString(",")}" }.mkString("; "))

    val digest = new Digest
    Strategies.filter(updated.contains).foreach { s => digest.add(s).addAll(updated(s)).addAll(moved(s)) }

    if (traced) {
      sc.removeSparkListener(listener)
      val mig = perBatch.filter(_._1)
      val std = perBatch.filterNot(_._1)
      def mean(xs: Iterable[Double]) = if (xs.isEmpty) 0.0 else xs.sum / xs.size
      layer("sparkmega.migrate_ms") = mean(mig.map(_._3.migrateMillis.toDouble))
      layer("sparkmega.moved_rows") = mean(mig.map(_._3.movedRows.toDouble))
      layer("sparkmega.fold_ms") = mean(std.map { case (_, t, _, ms) => ms - t.checkpointMs })
      layer("sparkmega.checkpoint_ms") = mean(perBatch.map(_._2.checkpointMs))
      layer("sparkmega.shuffle_write_mb") = mean(std.map(_._2.shuffleWriteBytes / Mib))
      layer("sparkmega.jobs_per_batch") = mean(perBatch.map(_._2.jobs.toDouble))
      layer("sparkmega.tasks_per_batch") = mean(perBatch.map(_._2.tasks.toDouble))
      layer("sparkmega.partition_skew") = mean(skews)
    }
    layer("sparkmega.state_rows") = updated.values.head.last.toDouble
    Pass(spans.totalNs, steps.toSeq, 0L, checks.toSeq, digest.hex, layer.toMap,
      spans.windows.toSeq, spans.allocBytes)
  }

  override def close(): Unit = if (spark != null) spark.stop()
}

object SparkMicrobatch {
  val Bins       = 256
  val Workers    = 8
  val NumBatches = 7
  val MigrateAt  = 1
  val Rows       = 50_000L
  val Keys       = 125_000L
  val Cores      = math.min(4, Runtime.getRuntime.availableProcessors)
  val Strategies = Seq("all-at-once", "batched", "fluid")
  private val Mib = 1024.0 * 1024.0
}

/** Job, task and shuffle totals from the listener bus. Jobs are split by
  * call site: `localCheckpoint` jobs are checkpoint work, the rest fold or
  * migrate.
  */
final class BatchListener extends SparkListener {
  import BatchListener.Totals
  private val starts = mutable.HashMap.empty[Int, (Long, String)]
  private var total  = Totals(0, 0, 0L, 0.0)
  private var atMark = total

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    // The final stage is named after the job's call site, e.g. "count at …".
    val site = e.stageInfos.maxByOption(_.stageId).map(_.name).getOrElse("")
    starts(e.jobId) = (e.time, site)
    total = total.copy(jobs = total.jobs + 1)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    starts.remove(e.jobId).foreach { case (t0, site) =>
      if (site.startsWith("localCheckpoint")) total = total.copy(checkpointMs = total.checkpointMs + (e.time - t0))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val written = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    total = total.copy(tasks = total.tasks + 1, shuffleWriteBytes = total.shuffleWriteBytes + written)
  }

  def mark(): Unit = synchronized { atMark = total }

  def sinceMark(): Totals = synchronized {
    Totals(total.jobs - atMark.jobs, total.tasks - atMark.tasks,
      total.shuffleWriteBytes - atMark.shuffleWriteBytes, total.checkpointMs - atMark.checkpointMs)
  }
}

object BatchListener {
  final case class Totals(jobs: Int, tasks: Int, shuffleWriteBytes: Long, checkpointMs: Double)
}
