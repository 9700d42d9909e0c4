package repro.exp

import repro.core._
import repro.harness.{CountingWorkload, TextTable}

/** §5.3 migration micro-benchmarks: maximum latency and duration of the
  * second (rebalancing) migration for each strategy, as bins, keys, offered
  * load, and memory are varied (Figures 1 and 16–20).
  */
object MigrationExp {

  /** Batched granularity used throughout §5: the strategy "strikes a balance";
    * we batch 1/64th of the moved bins, min 1.
    */
  def batchedFor(bins: Int): Batched = Batched(math.max(1, bins / 4 / 64))

  final case class Row(
      strategy: String,
      config: String,
      durationNs: Long,
      maxLatencyNs: Long,
      steadyMaxNs: Long,
  )

  def strategies(bins: Int): Seq[Strategy] = Seq(AllAtOnce, Fluid(), batchedFor(bins))

  /** Run one (config, strategy) cell; reports the *second* migration. */
  def one(cfg: CountingWorkload.Config, label: String, strategy: Strategy, totalNs: Long): Row = {
    val res = CountingWorkload.run(cfg, totalNs, Some(strategy))
    val m   = res.migrations.last
    Row(strategy.name, label, m.durationNs, m.maxLatencyNs, res.steadyMaxLatencyNs)
  }

  /** Figure 16: vary bins 2⁴…2¹⁴ (×4) for a fixed domain of 4096×10⁶ keys. */
  def varyBins(domain: Long = 4096L * 1000 * 1000, totalNs: Long = 90_000_000_000L): Seq[Row] =
    for {
      lb <- Seq(4, 6, 8, 10, 12, 14)
      s  <- strategies(1 << lb)
    } yield one(CountingWorkload.Config(bins = 1 << lb, domain = domain), s"bins=2^$lb", s, totalNs)

  /** Figure 17: vary domain 256…8192×10⁶ keys (×2) at 4096 bins. */
  def varyKeys(totalNs: Long = 90_000_000_000L): Seq[Row] =
    for {
      dM     <- Seq(256L, 512L, 1024L, 2048L, 4096L, 8192L)
      s      <- strategies(1 << 12)
    } yield one(
      CountingWorkload.Config(bins = 1 << 12, domain = dM * 1000 * 1000),
      s"keys=${dM}e6", s, totalNs)

  /** Figure 18: keys and bins grow together at 4×10⁶ keys/bin, up to 32×10⁹. */
  def varyProportional(totalNs: Long = 120_000_000_000L): Seq[Row] =
    for {
      dM     <- Seq(256L, 1024L, 4096L, 16384L, 32768L)
      bins    = math.max(16, (dM * 1000 * 1000 / 4_000_000L).toInt)
      s      <- strategies(bins)
    } yield one(
      CountingWorkload.Config(bins = bins, domain = dM * 1000 * 1000),
      s"keys=${dM}e6,bins=$bins", s, totalNs)

  /** Figure 19: offered load 0.25–32×10⁶ rec/s at 16384×10⁶ keys, 4096 bins.
    * Reports steady-state and migration maxima per strategy.
    */
  def varyLoad(totalNs: Long = 60_000_000_000L): Seq[Row] =
    for {
      rateK  <- Seq(250L, 1000L, 4000L, 16000L, 32000L)
      s      <- strategies(1 << 12)
    } yield one(
      CountingWorkload.Config(bins = 1 << 12, domain = 16384L * 1000 * 1000, ratePerSec = rateK * 1000),
      s"rate=${rateK}e3", s, totalNs)

  /** Figure 1 headline: one billion keys, 8 GB of state, full rebalance.
    * The optimized strategy's gap between batches is about one steady-state
    * maximum latency (20 ms), so that its 64 batches end well before fluid's
    * 1024 moves do.
    */
  def headline(totalNs: Long = 90_000_000_000L): Seq[Row] = {
    val cfg = CountingWorkload.Config(bins = 1 << 12, domain = 1000L * 1000 * 1000)
    Seq(
      one(cfg, "1e9 keys / 8GB", AllAtOnce, totalNs),
      one(cfg, "1e9 keys / 8GB", Fluid(), totalNs),
      one(cfg, "1e9 keys / 8GB", batchedFor(1 << 12).copy(gapNs = 20_000_000L), totalNs),
    )
  }

  /** Figure 20: per-process memory over time, 16×10⁹ keys, 4096 bins. */
  def memory(totalNs: Long = 90_000_000_000L): Seq[(String, Seq[(Long, Long, Long)])] =
    strategies(1 << 12).map { s =>
      val res = CountingWorkload.run(
        CountingWorkload.Config(bins = 1 << 12, domain = 16000L * 1000 * 1000),
        totalNs, Some(s), memSampleEveryNs = 1_000_000_000L)
      (s.name, res.memSamples)
    }

  def render(rows: Seq[Row]): String =
    TextTable.render(
      Seq("config", "strategy", "duration [s]", "max latency [ms]", "steady max [ms]"),
      rows.map(r => Seq(r.config, r.strategy, TextTable.sec(r.durationNs), TextTable.ms(r.maxLatencyNs), TextTable.ms(r.steadyMaxNs))),
    )
}
