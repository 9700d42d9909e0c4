package repro.bench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthData}
import repro.harness.TextTable
import repro.sparkmega.SparkMegaphone

/** The Spark micro-batch instantiation under migration: measured per-batch
  * wall times (medians of repeats) show the all-at-once spike vs.
  * fluid/batched smoothing on real Spark shuffles (the repro target's
  * Structured-Streaming-style table).
  */
class SparkMigrationBench extends SparkSpec {
  import spark.implicits._

  private val Bins       = 256
  private val Workers    = 8
  private val NumBatches = 12
  private val MigrateAt  = 5

  private def mkBatches() = (0 until NumBatches).map { i =>
    SynthData
      .uniformKeys(spark, 200_000L, 500_000L, seed = 31L + i)
      .select($"k" as "key", lit(1L) as "value")
      .cache()
  }

  private val Strategies = Seq("all-at-once", "batched", "fluid")
  private val Repeats    = 3

  private final case class Run(strategy: String, batchMs: Seq[Long], migMs: Seq[Long], moved: Seq[Long])

  private def runOnce(strategy: String, batches: Seq[DataFrame], moves: Seq[(Int, Int)]): Run = {
    val sched = SparkMegaphone.schedule(strategy, moves, MigrateAt, NumBatches - MigrateAt - 1)
    val eng   = new SparkMegaphone(spark, Bins, Workers)
    val res   = batches.zipWithIndex.map { case (b, i) => eng.processBatch(b, sched.getOrElse(i, Nil)) }
    eng.close()
    Run(strategy, res.map(_.batchMillis), res.map(_.migrateMillis), res.map(_.movedRows))
  }

  private def median(xs: Seq[Long]): Long = xs.sorted.apply(xs.size / 2)

  /** Per strategy, the per-batch median over `Repeats` runs. An untimed
    * warm-up run comes first, and each repeat rotates the strategy order, so
    * that JIT and Spark warm-up are not charged to whichever strategy runs
    * first.
    */
  private lazy val runs: Seq[Run] = {
    val batches = mkBatches()
    batches.foreach(_.count()) // materialize inputs outside the timing
    val moves = SparkMegaphone.imbalance(Bins, Workers)
    runOnce("batched", batches, moves)
    val reps = for {
      r <- 0 until Repeats
      i <- Strategies.indices
    } yield runOnce(Strategies((i + r) % Strategies.size), batches, moves)
    batches.foreach(_.unpersist())
    Strategies.map { s =>
      val rs = reps.filter(_.strategy == s)
      Run(s, rs.map(_.batchMs).transpose.map(median), rs.map(_.migMs).transpose.map(median), rs.head.moved)
    }
  }

  test("Spark: print per-batch wall times per strategy") {
    println(s"\n=== Spark micro-batch Megaphone: per-batch wall time [ms], median of $Repeats runs (migration from batch 5) ===")
    println(TextTable.render(
      "batch" +: (0 until NumBatches).map(_.toString),
      runs.map(r => r.strategy +: r.batchMs.map(_.toString)),
    ))
    println(TextTable.render(
      "migration [ms]" +: (0 until NumBatches).map(_.toString),
      runs.map(r => r.strategy +: r.migMs.map(_.toString)),
    ))
    println(TextTable.render(
      "moved rows" +: (0 until NumBatches).map(_.toString),
      runs.map(r => r.strategy +: r.moved.map(_.toString)),
    ))
    assert(runs.size == 3)
  }

  test("Spark: all-at-once concentrates migration work in one batch") {
    val a = runs.find(_.strategy == "all-at-once").get
    assert(a.moved.count(_ > 0) == 1)
    val f = runs.find(_.strategy == "fluid").get
    assert(f.moved.count(_ > 0) >= 3)
  }

  test("Spark: fluid moves fewer rows per batch than all-at-once's single batch") {
    val a = runs.find(_.strategy == "all-at-once").get
    val f = runs.find(_.strategy == "fluid").get
    assert(f.moved.max < a.moved.max)
    // State grows between batches, so fluid's total moved rows is at least
    // all-at-once's snapshot (same bins, observed later) — never less than
    // half on this workload.
    assert(f.moved.sum >= a.moved.sum / 2, s"fluid total ${f.moved.sum} vs all-at-once ${a.moved.sum}")
  }

  test("Spark: the all-at-once migration batch pays the largest migration time") {
    val a = runs.find(_.strategy == "all-at-once").get
    val f = runs.find(_.strategy == "fluid").get
    assert(a.migMs.max >= f.migMs.max,
      s"all-at-once per-batch migration ${a.migMs.max}ms vs fluid ${f.migMs.max}ms")
  }
}
