package repro.sparkmega

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.ListenerBusDrain
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import scala.collection.mutable

/** The Spark micro-batch instantiation: result correctness against DuckDB,
  * migration invariance across strategies, real placement checks via
  * spark_partition_id, and the shuffle volume of folds and migrations.
  */
class SparkMegaphoneSpec extends SparkSpec {
  import spark.implicits._

  private val Bins    = 64
  private val Workers = 8

  private def batches(n: Int, rowsPer: Int, keys: Int, seed: Long = 9L): Seq[DataFrame] =
    (0 until n).map { i =>
      SynthData
        .uniformKeys(spark, rowsPer.toLong, keys.toLong, seed + i)
        .select($"k" as "key", lit(1L) as "value")
    }

  test("counts equal DuckDB aggregation over all batches (no migration)") {
    val bs  = batches(4, 2000, 500).map(_.withColumn("value", $"key" % 7 + 1))
    val eng = new SparkMegaphone(spark, Bins, Workers)
    bs.foreach(eng.processBatch(_))
    val all = bs.reduce(_ union _)
    Oracle.assertEquivalent(
      eng.state.select($"key", $"cnt"),
      "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
      "input" -> all,
    )
    eng.close()
  }

  test("zipf-skewed keys aggregate correctly too") {
    val b = SynthData.zipfKeys(spark, 5000, 200).select($"k" as "key", lit(2L) as "value")
    val eng = new SparkMegaphone(spark, Bins, Workers)
    eng.processBatch(b)
    Oracle.assertEquivalent(
      eng.state.select($"key", $"cnt"),
      "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
      "input" -> b,
    )
    eng.close()
  }

  for (strategy <- Seq("all-at-once", "fluid", "batched")) {
    test(s"final state is invariant under $strategy migration") {
      val bs    = batches(6, 1500, 400)
      val moves = SparkMegaphone.imbalance(Bins, Workers)
      val sched = SparkMegaphone.schedule(strategy, moves, startBatch = 2, batchesAvailable = 3)
      val eng   = new SparkMegaphone(spark, Bins, Workers)
      bs.zipWithIndex.foreach { case (b, i) => eng.processBatch(b, sched.getOrElse(i, Nil)) }
      Oracle.assertEquivalent(
        eng.state.select($"key", $"cnt"),
        "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
        "input" -> bs.reduce(_ union _),
      )
      // Routing reflects the schedule's final assignment.
      moves.foreach { case (b, w) => assert(eng.currentOwner(b) == w) }
      eng.close()
    }
  }

  test("schedules partition the moves without loss or duplication") {
    val moves = SparkMegaphone.imbalance(Bins, Workers)
    for (s <- Seq("all-at-once", "fluid", "batched")) {
      val sched = SparkMegaphone.schedule(s, moves, 2, 4)
      assert(sched.values.flatten.toSet == moves.toSet)
      assert(sched.values.map(_.size).sum == moves.size)
    }
    assert(SparkMegaphone.schedule("all-at-once", moves, 2, 4).size == 1)
    assert(SparkMegaphone.schedule("fluid", moves, 2, 4).size >= 4)
  }

  test("placement: every bin's rows live in the partition of its worker") {
    val eng = new SparkMegaphone(spark, Bins, Workers)
    eng.processBatch(batches(1, 3000, 600).head)
    val placed = eng.state
      .withColumn("pid", spark_partition_id())
      .select($"bin", $"worker", $"pid")
      .distinct()
      .collect()
    // One partition per bin, and the partition is a pure function of worker.
    val byBin = placed.groupBy(_.getInt(0))
    byBin.values.foreach(rows => assert(rows.length == 1, "a bin must live in exactly one partition"))
    val byWorker = placed.groupBy(_.getInt(1)).view.mapValues(_.map(_.getInt(2)).toSet)
    byWorker.values.foreach(pids => assert(pids.size == 1, "a worker maps to one partition"))
    // That partition is the worker's own: no two workers share one, none is empty.
    placed.foreach(r => assert(r.getInt(2) == r.getInt(1), s"worker ${r.getInt(1)}'s rows in partition ${r.getInt(2)}"))
    assert(placed.map(_.getInt(2)).toSet == (0 until Workers).toSet, "every worker's partition holds state")
    eng.close()
  }

  /** Runs `f` and returns its result with the shuffle records its jobs wrote
    * and the number of jobs it ran.
    */
  private def sparkWork[T](f: => T): (T, Long, Int) = {
    val sc      = spark.sparkContext
    val records = new AtomicLong
    val jobs    = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (e.taskMetrics != null) records.addAndGet(e.taskMetrics.shuffleWriteMetrics.recordsWritten)
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      val r = f
      ListenerBusDrain(sc)
      (r, records.get, jobs.get)
    } finally sc.removeSparkListener(listener)
  }

  private def shuffleRecords[T](f: => T): (T, Long) = {
    val (r, records, _) = sparkWork(f)
    (r, records)
  }

  test("a fold-only batch shuffles the batch, not the state") {
    val b     = batches(1, 2000, 500, seed = 77L).head
    val empty = new SparkMegaphone(spark, Bins, Workers)
    val large = new SparkMegaphone(spark, Bins, Workers)
    batches(3, 20000, 20000).foreach(large.processBatch(_))
    val (_, onEmpty) = shuffleRecords(empty.processBatch(b))
    val (_, onLarge) = shuffleRecords(large.processBatch(b))
    assert(onEmpty > 0 && onEmpty == onLarge, s"$onEmpty records on an empty state, $onLarge on ${large.state.count()} rows")
    val blocks = b.rdd.getNumPartitions.toLong * Workers
    assert(onEmpty <= blocks, s"$onEmpty records for at most $blocks (batch partition, owner) blocks")
    empty.close(); large.close()
  }

  test("a migration ships one record per moved bin holding rows") {
    val b   = batches(1, 500, 1000, seed = 99L).head
    val eng = new SparkMegaphone(spark, Bins, Workers)
    batches(3, 3000, 1000).foreach(eng.processBatch(_))
    val moves = SparkMegaphone.imbalance(Bins, Workers)
    // (bin, rows) of every moved bin holding rows, just before the batch.
    val held = eng.state.filter($"bin".isin(moves.map(_._1): _*)).groupBy($"bin").count().as[(Int, Long)].collect()
    val (res, withMig) = shuffleRecords(eng.processBatch(b, moves))
    // The same batch under the same (post-migration) routing, without updates.
    val (_, foldOnly)  = shuffleRecords(eng.processBatch(b))
    assert(withMig - foldOnly == held.length,
      s"fold alone $foldOnly records, with migration $withMig, ${held.length} moved bins hold rows")
    assert(res.movedRows > 0)
    assert(res.movedRows == held.map(_._2).sum, s"moved ${res.movedRows} rows, the moved bins held ${held.map(_._2).sum}")
    eng.close()
  }

  test("a batch runs as one Spark job, with or without a migration") {
    val b   = batches(1, 500, 1000, seed = 99L).head
    val eng = new SparkMegaphone(spark, Bins, Workers)
    batches(2, 3000, 1000).foreach(eng.processBatch(_))
    val (_, _, foldJobs)  = sparkWork(eng.processBatch(b))
    val (res, _, migJobs) = sparkWork(eng.processBatch(b, SparkMegaphone.imbalance(Bins, Workers)))
    assert(res.movedRows > 0)
    assert(foldJobs == 1, s"a fold-only batch ran $foldJobs jobs")
    assert(migJobs == 1, s"a migrating batch ran $migJobs jobs")
    eng.close()
  }

  test("a long run migrating away and back stays exact, and its lineage stays bounded") {
    val bs     = batches(40, 300, 200, seed = 1000L)
    val away   = SparkMegaphone.imbalance(Bins, Workers)
    val back   = away.map { case (b, _) => (b, b % Workers) }
    // A batched migration every 5 batches, alternating direction.
    val sched  = (5 until 40 by 5).zipWithIndex
      .map { case (start, i) => SparkMegaphone.schedule("batched", if (i % 2 == 0) away else back, start, 4) }
      .reduce(_ ++ _)
    val owners = Array.tabulate(Bins)(_ % Workers)
    val eng    = new SparkMegaphone(spark, Bins, Workers)
    val depths = bs.zipWithIndex.map { case (b, i) =>
      val updates = sched.getOrElse(i, Nil)
      updates.foreach { case (bin, w) => owners(bin) = w }
      eng.processBatch(b, updates)
      ancestors(eng.stateRdd)
    }
    Oracle.assertEquivalent(
      eng.state.select($"key", $"cnt"),
      "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
      "input" -> bs.reduce(_ union _),
    )
    (0 until Bins).foreach(b => assert(eng.currentOwner(b) == owners(b), s"bin $b"))
    assert(owners.toSeq != Seq.tabulate(Bins)(_ % Workers), "the last migration moves bins away")
    assert(depths.forall(_ == depths.head) && depths.head <= 2, s"lineage depth per batch: ${depths.mkString(",")}")
    eng.close()
  }

  /** Number of distinct RDDs `rdd` depends on, transitively. */
  private def ancestors(rdd: RDD[_]): Int = {
    val seen = mutable.Set.empty[Int]
    def visit(r: RDD[_]): Unit = r.dependencies.foreach(d => if (seen.add(d.rdd.id)) visit(d.rdd))
    visit(rdd)
    seen.size
  }

  test("migration moves exactly the scheduled bins to their new workers") {
    val eng = new SparkMegaphone(spark, Bins, Workers)
    eng.processBatch(batches(1, 3000, 600).head)
    val before = eng.state.select($"bin", $"worker").distinct().as[(Int, Int)].collect().toMap
    val moves  = SparkMegaphone.imbalance(Bins, Workers)
    val res    = eng.processBatch(batches(1, 100, 600).head, moves)
    assert(res.movedRows > 0)
    val after = eng.state.select($"bin", $"worker").distinct().as[(Int, Int)].collect().toMap
    moves.foreach { case (b, w) => assert(after(b) == w && before(b) != w) }
    (0 until Bins).filterNot(moves.map(_._1).toSet).foreach(b => assert(after.get(b).forall(_ == before(b))))
    eng.close()
  }

  test("fluid schedule spreads moved rows over batches; all-at-once concentrates them") {
    val bs    = batches(6, 1000, 300)
    val moves = SparkMegaphone.imbalance(Bins, Workers)
    def movedPerBatch(strategy: String): Seq[Long] = {
      val sched = SparkMegaphone.schedule(strategy, moves, 1, 4)
      val eng   = new SparkMegaphone(spark, Bins, Workers)
      val res   = bs.zipWithIndex.map { case (b, i) => eng.processBatch(b, sched.getOrElse(i, Nil)) }
      eng.close()
      res.map(_.movedRows)
    }
    val allAtOnce = movedPerBatch("all-at-once")
    val fluid     = movedPerBatch("fluid")
    assert(allAtOnce.count(_ > 0) == 1)
    assert(fluid.count(_ > 0) >= 2)
    assert(fluid.max < allAtOnce.max, "fluid's per-batch migration work must be smaller")
  }

  test("empty batches and repeated migrations are safe") {
    val eng   = new SparkMegaphone(spark, Bins, Workers)
    val empty = Seq.empty[(Long, Long)].toDF("key", "value")
    eng.processBatch(empty)
    val moves = SparkMegaphone.imbalance(Bins, Workers)
    eng.processBatch(empty, moves)
    eng.processBatch(empty, moves.map { case (b, _) => (b, b % Workers) }) // move back
    moves.foreach { case (b, _) => assert(eng.currentOwner(b) == b % Workers) }
    eng.close()
  }

  test("an out-of-range update fails before the routing changes") {
    val bs  = batches(2, 1000, 300, seed = 500L)
    val eng = new SparkMegaphone(spark, Bins, Workers)
    eng.processBatch(bs(0))
    for (bad <- Seq((Bins, 0), (-1, 0), (3, Workers), (3, -1)))
      intercept[IllegalArgumentException](eng.processBatch(bs(1), Seq((0, 1), bad)))
    (0 until Bins).foreach(b => assert(eng.currentOwner(b) == b % Workers, s"bin $b"))
    eng.processBatch(bs(1))
    Oracle.assertEquivalent(
      eng.state.select($"key", $"cnt"),
      "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
      "input" -> bs.reduce(_ union _),
    )
    eng.close()
  }

  test("a batch whose columns are not both bigint fails before the routing changes") {
    val bs  = batches(2, 1000, 300, seed = 700L)
    val eng = new SparkMegaphone(spark, Bins, Workers)
    eng.processBatch(bs(0))
    val bad = intercept[IllegalArgumentException] {
      eng.processBatch(bs(1).withColumn("value", $"value".cast("int")), Seq((0, 1)))
    }
    assert(bad.getMessage.contains("column value is int"), bad.getMessage)
    (0 until Bins).foreach(b => assert(eng.currentOwner(b) == b % Workers, s"bin $b"))
    eng.processBatch(bs(1))
    Oracle.assertEquivalent(
      eng.state.select($"key", $"cnt"),
      "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
      "input" -> bs.reduce(_ union _),
    )
    eng.close()
  }

  test("a repeated bin's last update wins; a self-move ships to itself") {
    val bs      = batches(3, 1500, 400, seed = 600L)
    val updates = Seq((3, 5), (7, 7 % Workers), (3, 6))
    val eng     = new SparkMegaphone(spark, Bins, Workers)
    eng.processBatch(bs(0))
    eng.processBatch(bs(1), updates)
    eng.processBatch(bs(2))
    Oracle.assertEquivalent(
      eng.state.select($"key", $"cnt"),
      "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
      "input" -> bs.reduce(_ union _),
    )
    assert(eng.currentOwner(3) == 6 && eng.currentOwner(7) == 7 % Workers)
    val placed = eng.state.filter($"bin".isin(3, 7)).select($"bin", $"worker").distinct().as[(Int, Int)].collect()
    assert(placed.toSet == Set((3, 6), (7, 7 % Workers)), placed.mkString(","))
    eng.close()
  }
}
