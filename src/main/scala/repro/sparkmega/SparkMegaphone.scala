package repro.sparkmega

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructType}
import repro.core.{Batched, Moves}
import scala.collection.mutable

/** Megaphone's migration mechanism instantiated on Spark as a micro-batch
  * streaming engine (the repro target's "Structured Streaming state migration
  * mechanism that repartitions keyed state across executors in configurable
  * granularity").
  *
  * Worker `w`'s keyed state is partition `w` of an RDD held under an identity
  * partitioner: one `LongMap` of key → count per bin the worker holds (the
  * binned state of §4.2). The configuration function is a bin → worker
  * routing table, and a migration is — exactly as in §3.3 — a set of
  * `(bin, worker)` updates taking effect at a batch boundary (the logical
  * timestamp). One batch is one Spark job with one commit; its shuffles ship
  * whole blocks of primitive arrays, never one record per key or row:
  *
  *  - Migration. Each holder ships every updated bin it holds as one block
  *    (bin, keys, counts) to the bin's new owner (§3.4: the bin is the unit
  *    of state); the staying bins' maps carry over untouched. The
  *    migration's cost is therefore precisely the moving bins' rows:
  *    all-at-once pays it in one batch, fluid/batched spread it. A batch
  *    without updates builds no migration shuffle.
  *  - Fold. Each map partition of the batch sums its rows per key into one
  *    table per owner under the routing after the updates, and ships each
  *    non-empty table as one block (keys, sums) to that owner.
  *
  * Each worker zips its state with both shuffles' blocks, state before
  * records (§3.4). Both shuffles use `partitionBy` under the identity
  * partitioner with no aggregator, so with up to 200 workers (Spark's
  * default bypass threshold) Spark writes them with its bypass-merge writer.
  *
  * The batch ends in a commit: `localCheckpoint` and one action, which
  * materialises the new state and cuts its lineage. Committed maps are never
  * mutated (the block manager holds them); a batch copies a committed bin's
  * map before it changes it.
  *
  * OSS Structured Streaming pins its state store to fixed shuffle partitions;
  * placing state by an explicit routing table exposes the knob Megaphone needs.
  */
final class SparkMegaphone(
    val spark: SparkSession,
    val numBins: Int,
    val numWorkers: Int,
) {
  import SparkMegaphone._

  private val sc = spark.sparkContext

  /** configuration: bin → worker (latest ingested update wins). */
  private val routing: Array[Int] = Array.tabulate(numBins)(_ % numWorkers)

  def currentOwner(bin: Int): Int = routing(bin)

  /** Partition `w` holds the single element (w, bins): `bins(b)` is worker
    * w's key → count map of bin `b`, or null when w holds no rows of `b`.
    */
  private var parts: RDD[(Int, Bins)] = _
  commit {
    val nb = numBins
    sc.parallelize(0 until numWorkers, numWorkers)
      .map(w => (w, new Bins(nb)))
      .partitionBy(new ByWorker(numWorkers))
  }

  /** The committed state RDD (tests inspect its placement and lineage). */
  private[sparkmega] def stateRdd: RDD[(Int, Bins)] = parts

  /** Current state (bin, key, cnt, worker), one partition per worker:
    * `spark_partition_id() == worker`. Valid until the next batch.
    */
  def state: DataFrame = {
    val rows = parts.mapPartitions(
      _.flatMap { case (w, bins) =>
        bins.indices.iterator.filter(bins(_) != null).flatMap { b =>
          bins(b).iterator.map { case (k, c) => Row(b, k, c, w) }
        }
      },
      preservesPartitioning = true,
    )
    spark.createDataFrame(rows, StateSchema)
  }

  /** `migrateMillis` is `batchMillis` for a batch that carries updates (its
    * migration completes when the batch's one job commits) and 0 otherwise.
    */
  final case class BatchResult(
      batchMillis: Long,
      migrateMillis: Long,
      movedRows: Long,
      updatedRows: Long,
  )

  /** Mark `next` for local checkpointing, materialise it with one job that
    * counts its rows, and make it the state. The old state's blocks are
    * dropped before returning: removed in the background, they slowed the
    * next batch's tasks.
    */
  private def commit(next: RDD[(Int, Bins)]): Long = {
    next.localCheckpoint()
    val rows = sc.runJob(next, (it: Iterator[(Int, Bins)]) => it.next()._2.iterator.filter(_ != null).map(_.size.toLong).sum)
    if (parts != null) parts.unpersist(blocking = true)
    parts = next
    rows.sum
  }

  /** One micro-batch in one job: apply configuration updates (migrating
    * exactly the updated bins' rows), then fold the batch into per-key
    * counts. `batch` must have columns (key: Long, value: Long), every
    * update's bin must lie in `[0, numBins)` and its worker in
    * `[0, numWorkers)`, or this throws before the routing changes. When a
    * bin is updated more than once, the last update wins.
    */
  def processBatch(batch: DataFrame, updates: Seq[(Int, Int)] = Nil): BatchResult = {
    val tAll = System.nanoTime()
    val nb   = numBins
    val Seq(ki, vi) = Seq("key", "value").map { c =>
      require(batch.schema(c).dataType == LongType, s"column $c is ${batch.schema(c).dataType.simpleString}, not bigint")
      batch.schema.fieldIndex(c)
    }
    updates.foreach { case (b, w) =>
      require(b >= 0 && b < numBins, s"bin $b outside [0, $numBins)")
      require(w >= 0 && w < numWorkers, s"worker $w outside [0, $numWorkers)")
    }
    updates.foreach { case (b, w) => routing(b) = w }
    // Both shuffles route by one snapshot, which later batches cannot change.
    val owners = routing.clone()

    // ---- fold: each map partition sums its rows per key into one block per
    // owner, reading the (reused) internal rows of the batch's own plan.
    val nw = numWorkers
    val deltas = batch.queryExecution.toRdd
      .mapPartitions { rows =>
        val sums = Array.fill(nw)(mutable.LongMap.empty[Long])
        rows.foreach { r =>
          val k = r.getLong(ki)
          val s = sums(owners(binOf(k, nb)))
          s(k) = s.getOrElse(k, 0L) + r.getLong(vi)
        }
        sums.indices.iterator.filter(sums(_).nonEmpty).map(w => (w, toBlock(sums(w))))
      }
      .partitionBy(new ByWorker(numWorkers))
    val moved     = updates.map(_._1).distinct.toArray
    val installed = sc.longAccumulator // rows of the arriving bins
    val installThenFold = (st: Iterator[(Int, Bins)], arriving: Iterator[(Int, (Int, Array[Long], Array[Long]))],
                           blocks: Iterator[(Int, (Array[Long], Array[Long]))]) => {
      val (w, old) = st.next()
      val bins     = old.clone()
      val own      = new Array[Boolean](nb) // bins this batch may change in place
      moved.foreach(bins(_) = null)
      arriving.foreach { case (_, (b, keys, counts)) =>
        bins(b) = mutable.LongMap.fromZip(keys, counts)
        installed.add(keys.length.toLong)
        own(b) = true
      }
      blocks.foreach { case (_, (keys, sums)) =>
        var i = 0
        while (i < keys.length) {
          val k = keys(i)
          val b = binOf(k, nb)
          if (!own(b)) {
            bins(b) = if (bins(b) == null) mutable.LongMap.empty[Long] else bins(b).clone()
            own(b) = true
          }
          bins(b)(k) = bins(b).getOrElse(k, 0L) + sums(i)
          i += 1
        }
      }
      Iterator.single((w, bins))
    }
    // ---- migration, only when bins move: one block per updated bin a worker holds.
    val next =
      if (moved.isEmpty) parts.zipPartitions(deltas, preservesPartitioning = true)(installThenFold(_, Iterator.empty, _))
      else {
        val leaving = parts
          .flatMap { case (_, bins) =>
            moved.iterator.filter(bins(_) != null).map { b =>
              val (keys, counts) = toBlock(bins(b))
              (owners(b), (b, keys, counts))
            }
          }
          .partitionBy(new ByWorker(numWorkers))
        parts.zipPartitions(leaving, deltas, preservesPartitioning = true)(installThenFold)
      }
    val updatedRows = commit(next)
    val batchMillis = (System.nanoTime() - tAll) / 1_000_000L
    BatchResult(batchMillis, if (updates.nonEmpty) batchMillis else 0L, installed.sum, updatedRows)
  }

  /** Release the committed state's blocks. */
  def close(): Unit = parts.unpersist(blocking = true)
}

object SparkMegaphone {

  /** One worker's state: a key → count map per bin, null for bins it does not hold. */
  private[sparkmega] type Bins = Array[mutable.LongMap[Long]]

  private val StateSchema = StructType.fromDDL("bin INT, key BIGINT, cnt BIGINT, worker INT")

  /** Assign bins by the most significant bits idea of §4.2 — here a plain
    * modulo on a mixed hash, which serves the same purpose for Long keys.
    */
  def binOf(key: Long, numBins: Int): Int = (((key * 2654435761L) % numBins + numBins) % numBins).toInt

  /** The state's placement: partition `w` is worker `w`. */
  private final class ByWorker(workers: Int) extends Partitioner {
    def numPartitions: Int             = workers
    def getPartition(worker: Any): Int = worker.asInstanceOf[Int]
  }

  /** A key → value map as one block: its keys and values, in the same order. */
  private def toBlock(m: mutable.LongMap[Long]): (Array[Long], Array[Long]) = {
    val keys   = new Array[Long](m.size)
    val values = new Array[Long](m.size)
    var i      = 0
    m.foreachEntry { (k, v) => keys(i) = k; values(i) = v; i += 1 }
    (keys, values)
  }

  /** Migration schedules at micro-batch granularity: which updates take
    * effect at which batch index — the §3.3 strategies with the batch
    * boundary as the logical timestamp.
    */
  def schedule(
      strategy: String,
      moves: Seq[(Int, Int)],
      startBatch: Int,
      batchesAvailable: Int,
  ): Map[Int, Seq[(Int, Int)]] = {
    // Batches to spread the moves over, one slice each until they run out.
    val slices = strategy match {
      case "all-at-once" => 1
      case "fluid"       => batchesAvailable
      case "batched"     => math.min(4, batchesAvailable)
      case other         => throw new IllegalArgumentException(s"unknown strategy $other")
    }
    val per = math.max(1, math.ceil(moves.size.toDouble / slices).toInt)
    Batched(per).batches(moves).zipWithIndex.map { case (g, i) => (startBatch + i, g) }.toMap
  }

  /** The canonical §5 move set on the Spark engine's modulo assignment. */
  def imbalance(bins: Int, workers: Int): Seq[(Int, Int)] = Moves.imbalance(bins, workers)
}
