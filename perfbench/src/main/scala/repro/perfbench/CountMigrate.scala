package repro.perfbench

import repro.core._
import repro.harness.CountingWorkload
import repro.harness.CountingWorkload.{Config, CountLogic}
import repro.timely.Sim
import scala.collection.mutable

/** `count-migrate`: the Figure 1 counting workload in aggregate mode. Each
  * pass runs the two canonical migrations (imbalance, then rebalance) under
  * all-at-once, fluid and batched(16), between two runs without migration.
  * A step is one call to `CountingWorkload.run`, reported as host ms per
  * simulated second; the baseline run is the step without migration.
  */
final class CountMigrate(seed: Long, horizonNs: Long) extends Workload {
  import CountMigrate._

  /** Figure 1: 16 workers, 4096 bins, 10⁹ keys × 8 B (≈ 8 GB), 4×10⁶ rec/s,
    * key-count costs. Every field is written out so that a change to a
    * default cannot change the workload.
    */
  val cfg: Config = Config(
    workers = 16,
    bins = 4096,
    domain = 1_000_000_000L,
    ratePerSec = 4_000_000L,
    bytesPerKey = 8L,
    cost = CostModel(
      perRecordNs = 280.0,
      routeNs = 200.0,
      binScanBaseNs = 350.0,
      cacheBins = 1L << 14,
      serializeNsPerByte = 0.4,
      deserializeNsPerByte = 3.0,
      netBytesPerNs = 1.25,
      netLatencyNs = 100_000L,
      epochNs = 1_000_000L,
      progressLagNs = 200_000L,
      hiccupEveryNs = 400_000_000L,
      hiccupNs = 2_000_000L,
    ),
    native = false,
    groupsPerEpoch = 4,
    seed = seed,
  )

  val setupReps        = 15
  // Set-ups after the warm-up pass run at about 2.5x their compiled time
  // until a dozen or so have run.
  override val setupWarmupReps = 200
  override val minPasses = 2

  /** Engine and bin construction at the workload's configuration. */
  def setup(): Long = {
    val t0 = System.nanoTime()
    val engine = new MegaphoneEngine[Int, Unit, Unit](
      new Sim, cfg.workers, cfg.bins, cfg.cost, new CountLogic, binOf = identity, noiseSeed = cfg.seed)
    engine.initBins(modeledBytesPerBin = cfg.domain / cfg.bins * cfg.bytesPerKey)
    System.nanoTime() - t0
  }

  /** The warm-up leaves out fluid, whose migrations take half of a pass. */
  override def warmup(): Pass = run(Strategies.filterNot(_._1 == "fluid")).copy(digest = "")

  def pass(index: Int, traced: Boolean): Pass = run(Strategies)

  private def run(strategies: Seq[(String, Option[Strategy])]): Pass = {
    val spans   = new Spans
    val checks  = mutable.ArrayBuffer.empty[(String, Boolean)]
    val digest  = new Digest
    val layer   = mutable.LinkedHashMap.empty[String, Double]
    val steps   = mutable.ArrayBuffer.empty[Step]
    var simNs   = 0L

    // The baseline runs first and last, so that the steps without migration
    // bracket the migrating ones in time.
    val runs = Baseline +: strategies :+ Baseline
    for ((label, strategy) <- runs) {
      val (res, ns) = spans(Check.guard(checks, s"$label: run completes and the output frontier drains") {
        CountingWorkload.run(cfg, horizonNs, strategy, memSampleEveryNs = MemSampleNs)
      })
      res.foreach { r =>
        val migs = r.migrations
        Check(checks, s"$label: both migrations reported", migs.size == (if (strategy.isEmpty) 0 else 2), s"got ${migs.size}")
        // The source closes at the first epoch past the horizon, which the
        // runner extends past each migration's end.
        val end = if (migs.size == 2)
          Seq(horizonNs, migs(0).endNs + horizonNs / 3, migs(1).endNs + horizonNs / 6).max
        else horizonNs
        val epochs   = (end + cfg.cost.epochNs - 1) / cfg.cost.epochNs
        val injected = cfg.ratePerSec * cfg.cost.epochNs / 1_000_000_000L * epochs
        Check(checks, s"$label: applied weight equals injected weight", r.hist.count == injected.toDouble,
          s"hist.count=${r.hist.count} injected=$injected")

        val runSimNs = epochs * cfg.cost.epochNs
        simNs += runSimNs
        steps += Step(ns / 1e6 / (runSimNs / 1e9), migrating = strategy.nonEmpty)

        digest.add(label).addAll(r.hist.ccdf).addAll(r.series.rows).addAll(migs).addAll(r.memSamples)
          .add(r.steadyMaxLatencyNs).add(r.hist.count)
        strategy.foreach { s =>
          if (label == "fluid") layer("count.steady_max_ms") = r.steadyMaxLatencyNs / 1e6
          if (migs.size == 2) {
            layer(s"count.${s.name}.mig_max_ms") = migs(1).maxLatencyNs / 1e6
            layer(s"count.${s.name}.mig_s") = migs(1).durationNs / 1e9
          }
          layer(s"count.${s.name}.peak_inflight_mb") =
            (if (r.memSamples.isEmpty) 0L else r.memSamples.map(_._3).max) / Mib
        }
      }
    }
    Pass(spans.totalNs, steps.toSeq, simNs, checks.toSeq, digest.hex, layer.toMap, spans.windows.toSeq, spans.allocBytes)
  }
}

object CountMigrate {
  private val Mib = 1024.0 * 1024.0

  /** Simulated in-flight bytes are sampled at this period. */
  val MemSampleNs = 100_000_000L

  val Baseline: (String, Option[Strategy]) = "none" -> None

  /** The optimized (gapped) schedule is left out: it is known to be wrong. */
  val Strategies: Seq[(String, Option[Strategy])] = Seq(
    "all-at-once" -> Some(AllAtOnce),
    "fluid"       -> Some(Fluid(gapNs = 0L)),
    "batched"     -> Some(Batched(16, gapNs = 0L)),
  )
}
