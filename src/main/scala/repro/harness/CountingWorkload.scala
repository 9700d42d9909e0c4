package repro.harness

import repro.core._
import repro.timely.Sim
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** The counting micro-benchmark of §5.2/§5.3: a stream of identifiers drawn
  * from a fixed domain; state is the per-identifier count.
  *
  * Benchmarks drive the engine in *aggregate mode*: each injected [[Rec]]
  * represents `weight` records landing in one bin, so paper-scale rates
  * (4×10⁶ rec/s for minutes over up to 32×10⁹ keys) simulate in seconds while
  * every cost (routing, state updates, bin scans, serialization bytes, NIC
  * bandwidth) is charged at full scale. Correctness of the underlying engine
  * is established separately by record-level tests.
  */
object CountingWorkload {

  /** One bin-key's count, updated in place so that a fold boxes nothing. */
  final class Count { var n = 0L }

  /** Count state per bin-key; aggregate mode keeps one entry per bin. */
  final class CountLogic extends BinLogic[Int, Unit, Unit] {
    type St = Count
    def init(key: Int): Count = new Count
    def fold(time: Long, rec: Rec[Int, Unit], state: Count, out: Unit => Unit, notify: (Long, Rec[Int, Unit]) => Unit): Count = {
      state.n += rec.weight
      state
    }
    override def stateBytes(state: Count): Long = 0L // modeled via Bin.modeledBytes
  }

  final case class Config(
      workers: Int = 16,
      bins: Int = 1 << 12,
      domain: Long = 256L * 1000 * 1000,
      ratePerSec: Long = 4L * 1000 * 1000,
      bytesPerKey: Long = 8L,
      cost: CostModel = CostModel.keyCount,
      /** Native baseline: no routing layer, bins == workers, no bin scan. */
      native: Boolean = false,
      /** Distinct bins hit per worker per epoch in aggregate mode. */
      groupsPerEpoch: Int = 4,
      seed: Long = 42L,
  )

  final case class MigrationStats(strategy: String, startNs: Long, endNs: Long, maxLatencyNs: Long) {
    def durationNs: Long = endNs - startNs
  }

  final case class Result(
      hist: LatencyHistogram,
      series: LatencySeries,
      migrations: Seq[MigrationStats],
      /** (sampleNs, stateBytes of process 0, in-flight bytes from process 0). */
      memSamples: Seq[(Long, Long, Long)],
      steadyMaxLatencyNs: Long,
  )

  /** Run the workload for `steadyNs`, then (optionally) perform the paper's
    * two canonical migrations (imbalance at 1/3, rebalance at 2/3 of the
    * run) under `strategy`, reporting stats for each.
    */
  def run(
      cfg: Config,
      totalNs: Long,
      strategy: Option[Strategy],
      memSampleEveryNs: Long = 0L,
  ): Result = {
    val sim     = new Sim
    val bins    = if (cfg.native) cfg.workers else cfg.bins
    val cost    = if (cfg.native) CostModel.native(cfg.cost) else cfg.cost
    val hist    = new LatencyHistogram
    val series  = new LatencySeries

    val engine = new MegaphoneEngine[Int, Unit, Unit](
      sim,
      cfg.workers,
      bins,
      cost,
      new CountLogic,
      binOf = identity,
      onLatency = (lo, hi, w) => {
        hist.addRange(lo, hi, w.toDouble)
        series.add(sim.now, hi)
      },
      noiseSeed = cfg.seed,
    )
    engine.initBins(modeledBytesPerBin = math.max(1L, cfg.domain / bins) * cfg.bytesPerKey)
    // Long-running (e.g. fluid) migrations extend the run: input continues
    // until the second migration completed plus a drain period.
    var horizon = totalNs
    engine.enableNoise(totalNs * 20)

    // Open-loop source: every epoch each worker injects `groupsPerEpoch`
    // weighted records spread over distinct bins (multiplicative hashing).
    val epochNs        = cost.epochNs
    val perWorkerEpoch = cfg.ratePerSec.toDouble * epochNs / 1e9 / cfg.workers
    val groups         = math.max(1, math.min(cfg.groupsPerEpoch, bins / cfg.workers))
    val carry          = new Array[Double](cfg.workers)

    // Each epoch's batch is dispatched at the *end* of the epoch: its records
    // (timestamp t = epoch start) arrived uniformly during [t, t+epoch), so
    // none is dispatched before it arrived.
    // The input only closes once past the horizon AND both migrations are
    // done — a long fluid migration always completes under load.
    var migsDone = if (strategy.isEmpty) 2 else 0

    def inject(epoch: Long): Unit = {
      val t = epoch * epochNs
      if (t >= horizon && migsDone >= 2) { engine.dataInput.close(); engine.stopNoise(); return }
      var w = 0
      while (w < cfg.workers) {
        carry(w) += perWorkerEpoch
        val weight = carry(w).toLong
        if (weight > 0) {
          carry(w) -= weight
          // Group g weighs base + (g < extra); with base 0 only the first
          // `extra` groups carry any.
          val base  = weight / groups
          val extra = weight % groups
          val recs  = new Array[Rec[Int, Unit]](if (base > 0) groups else extra.toInt)
          var g     = 0
          while (g < recs.length) {
            val bin = (((epoch * cfg.workers + w) * groups + g) * 2654435761L % bins).toInt
            recs(g) = Rec[Int, Unit](bin, (), base + (if (g < extra) 1 else 0))
            g += 1
          }
          engine.dataInput.send(w, t, ArraySeq.unsafeWrapArray(recs))
        }
        w += 1
      }
      engine.dataInput.advanceTo(t + epochNs)
      // The controller may still future-date updates; an idle control stream
      // advances with the clock so configurations become final promptly.
      engine.controlInput.advanceTo(t + epochNs)
      sim.at(t + 2 * epochNs)(inject(epoch + 1))
    }
    sim.at(epochNs)(inject(0L))

    // Memory sampling ("RSS of the first process" = workers 0..3 of 16).
    val memSamples = mutable.ArrayBuffer.empty[(Long, Long, Long)]
    if (memSampleEveryNs > 0) {
      val procWorkers = math.max(1, cfg.workers / 4)
      def sample(at: Long): Unit = if (at < horizon) sim.at(at) {
        val state    = (0 until procWorkers).map(engine.stateBytesOfWorker).sum
        val inflight = (0 until procWorkers).map(engine.net.inFlightBySrc(_)).sum
        memSamples += ((at, state, inflight))
        sample(at + memSampleEveryNs)
      }
      sample(memSampleEveryNs)
    }

    // Canonical migrations at 1/3 and 2/3 of the run (§5: "initially migrate
    // half of the keys on half of the workers … then a second migration back
    // to the balanced configuration").
    val migStats   = mutable.ArrayBuffer.empty[MigrationStats]
    val controller = new MigrationController(engine)
    strategy match {
      case None => engine.controlInput.close()
      case Some(s) =>
        val m1 = totalNs / 3
        controller.migrate(m1, s, Moves.imbalance(bins, cfg.workers)) { (b, e) =>
          migStats += MigrationStats(s.name, b, e, 0L)
          migsDone += 1
          // The second (reported) migration starts once the first completed,
          // after a steady period; input continues throughout.
          horizon = math.max(horizon, e + totalNs / 3)
          controller.migrate(e + totalNs / 6, s, Moves.rebalance(bins, cfg.workers)) { (b2, e2) =>
            migStats += MigrationStats(s.name, b2, e2, 0L)
            migsDone += 1
            horizon = math.max(horizon, e2 + totalNs / 6)
            engine.controlInput.close()
          }
        }
    }

    sim.run()
    require(engine.probe.frontier == Long.MaxValue, "completion: output frontier must drain")

    val migsFinal = migStats.map(m => m.copy(maxLatencyNs = series.maxIn(m.startNs, m.endNs + series.windowNs)))
    val steadyEnd = if (migsFinal.isEmpty) totalNs else migsFinal.map(_.startNs).min - series.windowNs
    Result(hist, series, migsFinal.toSeq, memSamples.toSeq, series.maxIn(0, math.max(0, steadyEnd)))
  }
}
