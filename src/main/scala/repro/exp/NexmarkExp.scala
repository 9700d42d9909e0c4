package repro.exp

import repro.core.{AllAtOnce, Batched, Strategy}
import repro.harness.{LatencyHistogram, LatencySeries, TextTable}
import repro.nexmark.QueryRig

/** §5.1: NEXMark queries under load with a reconfiguration mid-run — the
  * data behind Figures 5–12. Reports the second (rebalancing) migration's
  * maximum latency and the steady-state maximum, per strategy.
  *
  * Scaling substitution (DESIGN.md): the paper drives 4×10⁶ events/s on 16
  * workers for 800 s; we drive a scaled rate on 8 workers for tens of
  * simulated seconds with time-dilated windows, preserving the relative
  * spike magnitudes between strategies.
  */
object NexmarkExp {

  final case class Row(
      query: Int,
      strategy: String,
      steadyMaxNs: Long,
      migMaxNs: Long,
      migDurationNs: Long,
      outputs: Long,
  )

  def run(
      q: Int,
      strategy: Option[Strategy],
      cfg: QueryRig.NexConfig = QueryRig.NexConfig(),
      totalNs: Long = 30_000_000_000L,
  ): Row = {
    val hist   = new LatencyHistogram
    val series = new LatencySeries
    val built  = QueryRig.build(q, cfg, hist, series)
    val migs   = QueryRig.drive(built, cfg, totalNs, strategy)

    val (migMax, migDur) = migs.lastOption match {
      case Some((b, e)) => (series.maxIn(b, e + series.windowNs), e - b)
      case None         => (0L, 0L)
    }
    val steadyEnd = if (migs.isEmpty) totalNs else totalNs / 3 - series.windowNs
    Row(q, strategy.map(_.name).getOrElse("none"), series.maxIn(0, steadyEnd), migMax, migDur, built.outputCount())
  }

  /** The Figures 5–12 sweep: each query under all-at-once and batched. */
  def sweep(cfg: QueryRig.NexConfig = QueryRig.NexConfig(), totalNs: Long = 30_000_000_000L): Seq[Row] =
    for {
      q <- 1 to 8
      s <- Seq[Strategy](AllAtOnce, Batched(math.max(1, cfg.bins / 4 / 16)))
    } yield run(q, Some(s), cfg, totalNs)

  def render(rows: Seq[Row]): String =
    TextTable.render(
      Seq("query", "strategy", "steady max [ms]", "migration max [ms]", "migration dur [s]", "outputs"),
      rows.map(r => Seq(s"Q${r.query}", r.strategy, TextTable.ms(r.steadyMaxNs), TextTable.ms(r.migMaxNs),
        TextTable.sec(r.migDurationNs), r.outputs.toString)),
    )
}
