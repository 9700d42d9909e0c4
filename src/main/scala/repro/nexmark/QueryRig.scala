package repro.nexmark

import repro.core._
import repro.harness.{LatencyHistogram, LatencySeries}
import repro.timely.Sim
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import MegaphoneQueries._

/** Assembles NEXMark queries into one- or two-stage Megaphone dataflows on
  * the simulated substrate. The *main* (stateful, migrated) operator of each
  * query (§5: "we migrate the state of the main operator of each dataflow")
  * carries the latency instrumentation and the control input.
  */
object QueryRig {

  final case class NexConfig(
      workers: Int = 8,
      /** A power of two. */
      bins: Int = 1 << 10,
      ratePerSec: Int = 100_000,
      /** Q5 sliding / Q7 tumbling window (time-dilated, §5.1). */
      windowNs: Long = 2_000_000_000L,
      /** Q8 tumbling window (dilated from twelve hours). */
      q8WindowNs: Long = 8_000_000_000L,
      auctionLifeNs: Long = 10_000_000_000L,
      cost: CostModel = CostModel.keyCount.copy(perRecordNs = 250.0),
      seed: Long = 11L,
  )

  /** A built query dataflow with uniform driving hooks. */
  final case class Built(
      sim: Sim,
      send: (Long, Seq[Event]) => Unit,
      advance: Long => Unit,
      closeData: () => Unit,
      controlAdvance: Long => Unit,
      closeControl: () => Unit,
      migrate: (Long, Strategy, Seq[(Int, Int)], (Long, Long) => Unit) => Unit,
      mainBins: Int,
      drained: () => Boolean,
      outputCount: () => Long,
  )

  /** Per-query input keying for the first stage: the event's record, or
    * null when the query does not read the event.
    */
  private def recOf(q: Int, cfg: NexConfig): Event => Rec[Long, In] = {
    case b: Bid if q == 7     => Rec(b.time / cfg.windowNs, BidIn(b))
    case b: Bid if q != 3 && q != 8 => Rec(b.auction, BidIn(b))
    case a: Auction if q == 3 || q == 8 => Rec(a.seller, AuctionIn(a))
    case a: Auction if q == 4 || q == 6 => Rec(a.id, AuctionIn(a))
    case p: Person if q == 3 || q == 8  => Rec(p.id, PersonIn(p))
    case _ => null
  }

  def build(
      q: Int,
      cfg: NexConfig,
      hist: LatencyHistogram,
      series: LatencySeries,
      collect: mutable.Buffer[Out] = null,
  ): Built = {
    val sim = new Sim
    var outCount = 0L
    def countOut(o: Out): Unit = { outCount += 1; if (collect != null) collect += o; () }

    require(Integer.bitCount(cfg.bins) == 1, s"bins must be a power of two, not ${cfg.bins}")
    // key mod bins, non-negative: with a power of two, the low bits.
    val binMask            = cfg.bins - 1L
    val binOf: Long => Int = k => (k & binMask).toInt

    /** One stage; `out(t, o)` receives its outputs, and the main stage also
      * records latencies.
      */
    def stage[V](logic: BinLogic[Long, V, Out], main: Boolean, out: (Long, Out) => Unit): MegaphoneEngine[Long, V, Out] = {
      val e = new MegaphoneEngine[Long, V, Out](
        sim, cfg.workers, cfg.bins, cfg.cost, logic, binOf,
        onOutput = out,
        onLatency = if (main) (lo, hi, w) => { hist.addRange(lo, hi, w.toDouble); series.add(sim.now, hi) } else null,
      )
      e.initBins()
      e
    }

    val rec = recOf(q, cfg)

    /** `first` takes the input and `main` is migrated; `other`, the non-main
      * engine of a two-stage query (null for one stage), never migrates: its
      * control stream closes now.
      */
    def mkBuilt(first: MegaphoneEngine[Long, In, Out], main: MegaphoneEngine[Long, _, Out], other: MegaphoneEngine[Long, _, Out]): Built = {
      val ctl = new MigrationController(main)
      if (other != null) other.controlInput.close()
      Built(
        sim,
        send = (t, evs) => {
          val recs = new Array[Rec[Long, In]](evs.size)
          var n    = 0
          val it   = evs.iterator
          while (it.hasNext) { val r = rec(it.next()); if (r != null) { recs(n) = r; n += 1 } }
          // Consecutive groups of n / workers + 1 records, group w to worker w.
          val size = n / cfg.workers + 1
          var lo   = 0
          while (lo < n) {
            val hi = math.min(n, lo + size)
            first.dataInput.send(lo / size % cfg.workers, t, ArraySeq.unsafeWrapArray(java.util.Arrays.copyOfRange(recs, lo, hi)))
            lo = hi
          }
        },
        advance = t => first.dataInput.advanceTo(t),
        closeData = () => first.dataInput.close(),
        controlAdvance = t => main.controlInput.advanceTo(t),
        closeControl = () => main.controlInput.close(),
        migrate = (at, s, moves, done) => ctl.migrate(at, s, moves)(done),
        mainBins = cfg.bins,
        drained = () => main.probe.frontier == Long.MaxValue && (other == null || other.probe.frontier == Long.MaxValue),
        outputCount = () => outCount,
      )
    }

    def single(logic: BinLogic[Long, In, Out]): Built = {
      val e = stage(logic, main = true, (_, o) => countOut(o))
      mkBuilt(e, e, null)
    }

    /** The first stage's `(Long, Long)` outputs feed the second stage under
      * `secondKey`, at worker `key % workers`; the second stage's progress
      * follows the first's output frontier.
      */
    def twoStage(first: BinLogic[Long, In, Out], second: BinLogic[Long, (Long, Long), Out], mainIsSecond: Boolean)(
        secondKey: ((Long, Long)) => Long): Built = {
      val e2 = stage(second, mainIsSecond, (_, o) => countOut(o))
      val e1 = stage(first, !mainIsSecond, (t, o) => {
        val v = o.asInstanceOf[(Long, Long)]
        val k = secondKey(v)
        e2.dataInput.send((k % cfg.workers).toInt, t, Rec(k, v) :: Nil)
      })
      e1.probe.onAdvance { _ =>
        // Read the live frontier: a stale advance value could overshoot.
        val f = e1.probe.frontier
        if (f == Long.MaxValue) e2.dataInput.close()
        else { e2.dataInput.advanceTo(f); e2.controlInput.advanceTo(f) }
      }
      if (mainIsSecond) mkBuilt(e1, e2, e1) else mkBuilt(e1, e1, e2)
    }

    q match {
      case 1 => single(new Q1Logic)
      case 2 => single(new Q2Logic)
      case 3 => single(new Q3Logic)
      case 4 => twoStage(new CloseLogic(emitSeller = false), new AvgLogic, mainIsSecond = false)(_._1)
      case 5 => twoStage(new HotLogic(cfg.windowNs), new MaxCountLogic, mainIsSecond = false)(_ => 0L)
      case 6 => twoStage(new CloseLogic(emitSeller = true), new Last10Logic, mainIsSecond = true)(_._1)
      case 7 => single(new MaxBidLogic(cfg.windowNs))
      case 8 => single(new NewUsersLogic(cfg.q8WindowNs))
      case _ => throw new IllegalArgumentException(s"unknown query $q")
    }
  }

  /** Drives a built query through `horizonNs` of input and runs it to the
    * end. Epoch `e`'s events enter at the end of the epoch, until the horizon.
    * With a strategy, the canonical migrations run: the imbalance at 1/3 of
    * the horizon, then the rebalance at `max(end + 1, 2/3)`. The control input
    * closes at the horizon, or when the rebalance ends if that is later.
    * Returns the migrations' `(start, end)` windows in order.
    */
  def drive(built: Built, cfg: NexConfig, horizonNs: Long, strategy: Option[Strategy]): Seq[(Long, Long)] = {
    val sim     = built.sim
    val epochNs = cfg.cost.epochNs
    val gen     = new EventGen(epochNs, math.max(1, (cfg.ratePerSec * epochNs / 1e9).toInt), cfg.auctionLifeNs, cfg.seed)

    def inject(e: Long): Unit = {
      val t = e * epochNs
      if (t >= horizonNs) { built.closeData(); return }
      built.send(t, gen.epoch(e))
      built.advance(t + epochNs)
      built.controlAdvance(t + epochNs)
      sim.at(t + 2 * epochNs)(inject(e + 1))
    }
    sim.at(epochNs)(inject(0))

    val migs = mutable.ArrayBuffer.empty[(Long, Long)]
    def closeCtl(): Unit =
      if (sim.now >= horizonNs) built.closeControl() else sim.at(horizonNs)(built.closeControl())
    strategy match {
      case None => closeCtl()
      case Some(s) =>
        built.migrate(horizonNs / 3, s, Moves.imbalance(built.mainBins, cfg.workers), (b, e) => {
          migs += ((b, e))
          built.migrate(math.max(e + 1, 2 * horizonNs / 3), s, Moves.rebalance(built.mainBins, cfg.workers), (b2, e2) => {
            migs += ((b2, e2))
            closeCtl()
          })
        })
    }

    sim.run()
    require(built.drained(), "the query did not drain its output frontier")
    migs.toSeq
  }
}
