package repro.perfbench

import repro.core._
import repro.harness.{LatencyHistogram, LatencySeries}
import repro.nexmark.{EventGen, NativeQueries, QueryRig}
import repro.nexmark.QueryRig.NexConfig
import scala.collection.mutable

/** `nexmark`: NEXMark Q4 and Q5 at record level with the canonical pair of
  * migrations under batched(16). The benchmark drives each query itself
  * (`QueryRig.build`, `EventGen.epoch`, `Built.send`, `Sim.run`) and advances
  * both queries together by a fixed simulated step; a step that overlaps a
  * migration of either query is a migration step.
  */
final class Nexmark(seed: Long, horizonNs: Long) extends Workload {
  import Nexmark._

  /** Every field written out, so a change to a default cannot change it. */
  val cfg: NexConfig = NexConfig(
    workers = 8,
    bins = 1024,
    ratePerSec = 100_000,
    windowNs = 2_000_000_000L,
    q8WindowNs = 8_000_000_000L,
    // Auctions close 1–2 s after they open: during the input and across
    // both migrations, so Q4's notificator path runs under load.
    auctionLifeNs = 2_000_000_000L,
    cost = CostModel(
      perRecordNs = 250.0,
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
    seed = seed,
  )
  private val epochNs        = cfg.cost.epochNs
  private val eventsPerEpoch = (cfg.ratePerSec * epochNs / 1_000_000_000L).toInt
  private val epochs         = horizonNs / epochNs
  val strategy: Strategy     = Batched(16, gapNs = 0L)

  private def newGen() = new EventGen(epochNs, eventsPerEpoch, cfg.auctionLifeNs, cfg.seed)

  val setupReps        = 15
  // Set-ups after the warm-up pass run at about 2.5x their compiled time
  // until a dozen or so have run.
  override val setupWarmupReps = 200
  // Only two steps per pass carry a migration.
  override val minPasses = 3

  /** Engine, bin and generator construction for both queries. */
  def setup(): Long = {
    val t0 = System.nanoTime()
    Queries.foreach { q => QueryRig.build(q, cfg, new LatencyHistogram, new LatencySeries); newGen() }
    System.nanoTime() - t0
  }

  /** One query's dataflow, built for a pass. */
  private final class Run(val q: Int) {
    val hist   = new LatencyHistogram
    val series = new LatencySeries
    val outs   = mutable.ArrayBuffer.empty[Product]
    val built  = QueryRig.build(q, cfg, hist, series, collect = outs)
    val gen    = newGen()
    var migs   = Vector.empty[(Long, Long)]
    var genNs  = 0L
    var sendNs = 0L
    private val sim = built.sim

    private def inject(e: Long): Unit = {
      val t = e * epochNs
      if (t >= horizonNs) { built.closeData(); return }
      val g0  = System.nanoTime()
      val evs = gen.epoch(e)
      val g1  = System.nanoTime()
      built.send(t, evs)
      sendNs += System.nanoTime() - g1
      genNs += g1 - g0
      built.advance(t + epochNs)
      built.controlAdvance(t + epochNs)
      sim.at(t + 2 * epochNs)(inject(e + 1))
    }
    sim.at(epochNs)(inject(0L))

    // The canonical pair: imbalance at 1/3, rebalance at 2/3 of the input.
    private def closeCtl(): Unit =
      if (sim.now >= horizonNs) built.closeControl() else sim.at(horizonNs)(built.closeControl())
    built.migrate(horizonNs / 3, strategy, Moves.imbalance(built.mainBins, cfg.workers), (b, e) => {
      migs :+= ((b, e))
      built.migrate(math.max(e + 1, 2 * horizonNs / 3), strategy, Moves.rebalance(built.mainBins, cfg.workers),
        (b2, e2) => { migs :+= ((b2, e2)); closeCtl() })
    })
  }

  /** Compare a run's outputs with `NativeQueries.drive` on the same events. */
  private def checkAgainstNative(r: Run, checks: mutable.Buffer[(String, Boolean)]): Unit = {
    val native = NativeQueries.drive(
      if (r.q == 4) new NativeQueries.Q4Native() else new NativeQueries.Q5Native(cfg.windowNs),
      newGen().all(epochs.toInt), epochNs, horizonNs + cfg.q8WindowNs + cfg.auctionLifeNs + cfg.windowNs)
    val outs = r.outs.toSeq
    if (r.q == 4)
      Check(checks, "Q4: outputs equal the native query's as multisets", multiset(outs) == multiset(native),
        s"megaphone ${outs.size} outputs, native ${native.size}")
    else {
      // Q5's intermediate max-reports depend on the order in which updates
      // of one timestamp reach its second stage from different workers, so
      // the multisets agree only on one worker. The largest count and the
      // final report do not depend on that order.
      def counts(xs: Seq[Product]) = xs.map(_.productElement(1).asInstanceOf[Long])
      Check(checks, "Q5: largest reported count equals the native query's",
        outs.nonEmpty && counts(outs).max == counts(native).max)
      Check(checks, "Q5: final report equals the native query's", outs.lastOption == native.lastOption,
        s"megaphone ${outs.lastOption}, native ${native.lastOption}")
    }
  }

  def pass(index: Int, traced: Boolean): Pass = {
    val spans   = new Spans
    val checks  = mutable.ArrayBuffer.empty[(String, Boolean)]
    val digest  = new Digest
    val layer   = mutable.LinkedHashMap.empty[String, Double]
    val steps   = mutable.ArrayBuffer.empty[Step]

    val runs = Queries.map(new Run(_))
    // Both queries advance together, one simulated step at a time.
    val slices = mutable.ArrayBuffer.empty[(Long, Long)]
    spans {
      var until = StepNs
      while (runs.exists(!_.built.sim.idle)) {
        val s0 = System.nanoTime()
        runs.foreach(_.built.sim.run(until))
        slices += ((until - StepNs, System.nanoTime() - s0))
        until += StepNs
      }
    }
    // Steps under load only: the drain after the input closes is idle time.
    slices.foreach { case (from, ns) =>
      if (from + StepNs <= horizonNs) {
        val overlaps = runs.exists(_.migs.exists { case (b, e) => from <= e && from + StepNs > b })
        steps += Step(ns / 1e6, overlaps)
      }
    }

    for (r <- runs) {
      import r._
      Check(checks, s"Q$q: output frontier drains", built.drained())
      Check(checks, s"Q$q: both migrations reported", migs.size == 2, s"got ${migs.size}")
      // The digest covers the outputs, so timed passes match this check by
      // reproducing the warm-up pass's digest.
      if (index < 0) checkAgainstNative(r, checks)

      val steadyMax = series.maxIn(0, horizonNs / 3 - series.windowNs)
      val (migMax, migDur) = migs.lastOption match {
        case Some((b, e)) => (series.maxIn(b, e + series.windowNs), e - b)
        case None         => (0L, 0L)
      }
      layer(s"nexmark.q$q.steady_max_ms") = steadyMax / 1e6
      layer(s"nexmark.q$q.mig_max_ms") = migMax / 1e6
      layer(s"nexmark.q$q.mig_s") = migDur / 1e9
      layer(s"nexmark.q$q.outputs") = outs.size.toDouble
      layer(s"nexmark.q$q.mig_ratio") = if (steadyMax > 0) migMax.toDouble / steadyMax else 0.0
      digest.add(s"Q$q").addAll(hist.ccdf).addAll(series.rows).addAll(migs).add(steadyMax).addAll(outs)
    }
    layer("nexmark.gen_ms") = runs.map(_.genNs).sum / 1e6
    layer("nexmark.send_ms") = runs.map(_.sendNs).sum / 1e6
    Pass(spans.totalNs, steps.toSeq, runs.map(_.built.sim.now).sum, checks.toSeq,
      digest.hex, layer.toMap, spans.windows.toSeq, spans.allocBytes)
  }
}

object Nexmark {
  val Queries = Seq(4, 5)

  /** Simulated time advanced per step; a step takes about half a second of
    * host time, so that short host and GC pauses are a small share of it.
    */
  val StepNs = 500_000_000L

  private def multiset(xs: Seq[Product]): Map[Product, Int] = xs.groupBy(identity).view.mapValues(_.size).toMap
}
