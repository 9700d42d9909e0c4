package repro.core

import repro.timely.{EventHeap, Net, Sim, SimWorker, Tracker}
import scala.collection.mutable
import MegaphoneEngine.OnLatency

/** The Megaphone construction of §3.4 over the simulated timely substrate.
  *
  * Each worker hosts an instance of the routing operator F and the
  * state-hosting operator S (Figure 3b). Three progress-tracking structures
  * coordinate them, mirroring the paper's dataflow edges:
  *
  *   - `main`    — pointstamps on the source→F→S path (messages in flight and
  *                 capabilities held by F, including pending migrations); its
  *                 frontier is S's input frontier.
  *   - `control` — the configuration-update stream's frontier; a configuration
  *                 at time t is final once this frontier passes t.
  *   - `probe`   — the output frontier of S (input frontier plus records and
  *                 post-dated work still pending inside S). F initiates a
  *                 migration at time t only once `probe` reaches t, and
  *                 migration strategies await `probe` passing t for completion.
  *
  * Records carry a `weight` so benchmarks can drive paper-scale rates; all
  * costs and histogram counts scale by weight (see [[Rec]]).
  */
final class MegaphoneEngine[K, V, O](
    val sim: Sim,
    val numWorkers: Int,
    val numBins: Int,
    val cost: CostModel,
    val logic: BinLogic[K, V, O],
    binOf: K => Int,
    /** (recordTime, output) for every emitted output. */
    onOutput: (Long, O) => Unit = null,
    /** Latencies of every applied input record (see [[OnLatency]]). */
    onLatency: OnLatency = null,
    noiseSeed: Long = 0xC0FFEEL,
) {
  require(numWorkers > 0 && numBins >= numWorkers, "need at least one bin per worker")

  val workers: Array[SimWorker] = Array.tabulate(numWorkers)(new SimWorker(_, sim))
  val net                       = new Net(sim, cost.netBytesPerNs, cost.netLatencyNs)
  val main                      = new Tracker("main")
  val control                   = new Tracker("control")
  val probe                     = new Tracker("s-output")

  /** Bytes of one data record on the wire. */
  val dataBytesPerRecord = 16L

  /** Test hook: observe every state update as (time, key, worker) — used to
    * check the Migration property (Property 2) against `route`.
    */
  var onApply: (Long, K, Int) => Unit = null

  private def holdBoth(t: Long, n: Long = 1L): Unit = { main.hold(t, n); probe.hold(t, n) }

  // ---------------------------------------------------------------- routing

  /** Assignment after all ingested configuration updates: the old owner of
    * a new update, since a bin's update times never go backwards.
    */
  private val assignTable: Array[Int] = Array.tabulate(numBins)(_ % numWorkers)

  /** Time-dependent configuration function: per-bin update history, null
    * for a bin that never received an update (it is still at its
    * `assignTable` owner).
    */
  private val binHistory = new Array[BinHistory](numBins)

  /** configuration(time, bin) → worker (§3.2). */
  def route(time: Long, bin: Int): Int = {
    val h = binHistory(bin)
    if (h == null) assignTable(bin) else h.ownerAt(time)
  }

  /** Current owner per the latest ingested configuration. */
  def currentOwner(bin: Int): Int = assignTable(bin)

  // ------------------------------------------------------------------- bins

  /** Pre-create all bins at their initial owners. `modeledBytesPerBin` lets
    * aggregate-mode benchmarks model paper-scale state sizes without storing
    * the keys (see DESIGN.md substitutions).
    */
  def initBins(modeledBytesPerBin: Long = 0L): Unit = {
    var b = 0
    while (b < numBins) {
      val bin = new Bin[K, V, O](b, logic)
      bin.modeledBytes = modeledBytesPerBin
      sOps(assignTable(b)).add(bin)
      b += 1
    }
  }

  def stateBytesOfWorker(w: Int): Long = {
    val bins  = sOps(w).bins
    var bytes = 0L
    var b     = 0
    while (b < bins.length) { if (bins(b) != null) bytes += bins(b).sizeBytes; b += 1 }
    bytes
  }

  // -------------------------------------------------------------- operators

  /** One F→S data message: the records F routed to worker `dst` at time
    * `t`, of total `weight`. It is its own delivery callback, so a send
    * allocates nothing else. Buffered at S, `next` is the message that
    * arrived right after it for the same time, if any.
    */
  final class Msg(val t: Long, val recs: Array[Rec[K, V]], val weight: Long, dst: Int) extends (Long => Unit) {
    private[MegaphoneEngine] var next: Msg = null

    def apply(arrival: Long): Unit = sOps(dst).receive(this)
  }

  /** State-hosting operator S: installs migrated bins and applies records in
    * timestamp order once not in advance of its input frontier (§3.4).
    */
  final class SOp(val worker: Int) {
    /** Bins by id; null where this worker does not own the bin. */
    val bins          = new Array[Bin[K, V, O]](numBins)
    private var owned = 0

    def ownedBins: Iterator[Bin[K, V, O]] = bins.iterator.filter(_ != null)

    /** Delivered input as chains of consecutive same-time arrivals (linked
      * by [[Msg.next]]), keyed by `(time, arrival)`, so that same-time
      * records apply in arrival order. Chains mostly arrive in time order and
      * then pass through the heap's FIFO run. Each message delivered holds
      * one probe pointstamp at its time until its records are applied.
      */
    private val input    = new EventHeap[Msg]
    private var arrivals = 0L
    private var last: Msg = null // the latest arrival, the tail of its chain

    /** Wake-ups for post-dated work, as `(time, bin id)` pairs (the bin id in
      * the `seq` slot, no item): every owned bin with pending records has an
      * entry no later than its earliest one, so finding the due bins costs
      * O(due) rather than a scan of every bin.
      */
    private val wakeups     = new EventHeap[AnyRef]
    private var applyQueued = false
    private var applying    = false

    // The batch an apply task works on. At most one task is queued per S, so
    // the buffers are reused: the input messages in (time, arrival) order,
    // whose probe holds are released after the batch, and the due post-dated
    // records, popped in (time, seq) order.
    private var inMsgs  = new Array[Msg](16)
    private var inCount = 0
    private val due     = new EventHeap[Rec[K, V]]

    // The record being applied, read by `emit` and `post`, which are
    // allocated once per S rather than once per record.
    private var curT                 = 0L
    private var curBin: Bin[K, V, O] = _

    private val emit: O => Unit = o => if (onOutput != null) onOutput(curT, o)

    private val post: (Long, Rec[K, V]) => Unit = (t2, r2) => {
      if (t2 <= curT) throw new IllegalArgumentException(s"notify must be post-dated: $t2 <= $curT")
      if (binOf(r2.key) != curBin.id) throw new IllegalArgumentException("post-dated records stay in their key's bin")
      notifySeq += 1
      if (t2 < curBin.pending.minTime) wakeups.push(t2, curBin.id, null)
      curBin.pending.push(t2, notifySeq, r2)
      probe.hold(t2)
    }

    private[core] def add(bin: Bin[K, V, O]): Unit = {
      if (bins(bin.id) == null) owned += 1
      bins(bin.id) = bin
    }

    def receive(msg: Msg): Unit = {
      if (last != null && last.t == msg.t) last.next = msg
      else { arrivals += 1; input.push(msg.t, arrivals, msg) }
      last = msg
      // The in-flight message's pointstamp moves from `main` into S-internal
      // pending: S's *input* frontier may now pass t (which is exactly what
      // makes the records applicable) while `probe` — S's output — still
      // holds t until they are applied.
      main.release(msg.t)
    }

    def install(t: Long, bin: Bin[K, V, O]): Unit = {
      add(bin)
      if (!bin.pending.isEmpty) wakeups.push(bin.pending.minTime, bin.id, null)
      // Probe holds for the bin's post-dated records persist across the
      // migration (the state message's pointstamp at t <= all pending times
      // kept the frontier from passing them in transit).
      probe.release(t) // the state message's own pointstamp
      tryApply()
    }

    def uninstall(binId: Int): Bin[K, V, O] = {
      val bin = bins(binId)
      if (bin == null) throw new IllegalStateException(s"worker $worker cannot uninstall bin $binId: it does not own it")
      bins(binId) = null
      owned -= 1
      bin
    }

    def tryApply(): Unit = {
      if (applyQueued) return
      if (applying) throw new IllegalStateException(s"worker $worker: tryApply re-entered while applying a batch")
      val f = main.frontier
      if (input.minTime >= f && wakeups.minTime >= f) return

      var weight = 0L
      while (input.minTime < f) {
        var msg = input.minItem
        input.removeMin()
        while (msg != null) {
          if (inCount == inMsgs.length) inMsgs = java.util.Arrays.copyOf(inMsgs, inCount * 2)
          inMsgs(inCount) = msg
          inCount += 1
          weight += msg.weight
          msg = msg.next
        }
      }
      if (last != null && last.t < f) last = null // its chain was taken out
      while (wakeups.minTime < f) {
        val b = wakeups.minSeq.toInt
        wakeups.removeMin()
        val bin = bins(b) // null once the bin migrated away
        if (bin != null && bin.pending.minTime < f) {
          val p = bin.pending
          while (p.minTime < f) {
            weight += p.minItem.weight
            due.push(p.minTime, p.minSeq, p.minItem)
            p.removeMin()
          }
          if (!p.isEmpty) wakeups.push(p.minTime, b, null)
        }
      }
      if (inCount == 0 && due.isEmpty) return
      applyQueued = true

      // Charged on the batch's total weight: with integer weights and an
      // integer-valued perRecordNs this equals the sum of per-record charges.
      val recCost  = weight * cost.perRecordNs
      val scanCost = owned * cost.binScanNs(numBins.toLong)
      workers(worker).exec((recCost + scanCost).toLong)(applyBatch)
    }

    /** Apply the queued batch in timestamp order across both sources (§3.2:
      * sequential, timestamp-ordered application per key): same-time input
      * records come before post-dated ones (which were scheduled strictly
      * earlier and become due together), and post-dated ties replay in
      * engine-global `seq` order.
      */
    private def applyBatch(done: Long): Unit = {
      applyQueued = false
      applying = true
      var m = 0 // the input message and its record to apply next
      var i = 0
      while (m < inCount || !due.isEmpty) {
        if (m < inCount && (due.isEmpty || inMsgs(m).t <= due.minTime)) {
          val t = inMsgs(m).t
          val r = inMsgs(m).recs(i)
          i += 1
          if (i == inMsgs(m).recs.length) { m += 1; i = 0 }
          applyOne(t, r)
          if (onLatency != null)
            onLatency(math.max(0L, done - (t + cost.epochNs)), math.max(1L, done - t), r.weight)
        } else {
          val t = due.minTime
          val r = due.minItem
          due.removeMin()
          applyOne(t, r)
          probe.release(t) // the post-dated record's hold
        }
      }
      curBin = null
      // One release per time, of as many pointstamps as it had messages.
      m = 0
      while (m < inCount) {
        val t = inMsgs(m).t
        val from = m
        while (m < inCount && inMsgs(m).t == t) { inMsgs(m) = null; m += 1 }
        probe.release(t, (m - from).toLong)
      }
      inCount = 0
      applying = false
      tryApply() // post-dated work may have become due meanwhile
    }

    private def applyOne(t: Long, r: Rec[K, V]): Unit = {
      val binId = binOf(r.key)
      if (onApply != null) onApply(t, r.key, worker)
      val bin = bins(binId)
      if (bin == null)
        throw new IllegalStateException(
          s"record at time $t with key ${r.key} (bin $binId) reached worker $worker, which does not own the bin")
      curT = t
      curBin = bin
      bin.apply(t, r, emit, post)
    }
  }

  // F's per-batch scratch, shared by every F, since routing a batch
  // returns before any other batch is routed: the records and each one's
  // destination, the destinations in use, and per destination the number of
  // records, their array and their weight.
  private var batch   = new Array[Rec[K, V]](16)
  private var dstOf   = new Array[Int](16)
  private val dsts    = new Array[Int](numWorkers)
  private val count   = new Array[Int](numWorkers)
  private val out     = new Array[Array[Rec[K, V]]](numWorkers)
  private val weights = new Array[Long](numWorkers)

  /** Routing operator F: routes by the configuration at each record's time,
    * buffering records whose time is in advance of the control frontier, and
    * initiating state migrations (§3.4).
    */
  final class FOp(val worker: Int) {
    /** Records whose time is in advance of the control frontier. */
    val buffered = new java.util.TreeMap[Long, mutable.ArrayBuffer[Rec[K, V]]]()

    def receive(t: Long, recs: Seq[Rec[K, V]]): Unit = {
      var weight = 0L
      val it     = recs.iterator
      while (it.hasNext) weight += it.next().weight
      workers(worker).exec((weight * cost.routeNs).toLong) { _ =>
        if (t < control.frontier) routeNow(t, recs)
        else buffered.computeIfAbsent(t, _ => mutable.ArrayBuffer.empty) ++= recs
      }
    }

    private def routeNow(t: Long, recs: Seq[Rec[K, V]]): Unit = {
      var n  = 0
      var nd = 0
      val it = recs.iterator
      while (it.hasNext) {
        val r = it.next()
        if (n == batch.length) {
          batch = java.util.Arrays.copyOf(batch, 2 * n)
          dstOf = java.util.Arrays.copyOf(dstOf, 2 * n)
        }
        val d = route(t, binOf(r.key))
        batch(n) = r
        dstOf(n) = d
        if (count(d) == 0) { dsts(nd) = d; nd += 1 }
        count(d) += 1
        n += 1
      }
      // Messages leave in destination order, as timely's exchange flushes
      // its pushers in worker order.
      java.util.Arrays.sort(dsts, 0, nd)
      // The batch's hold passes to the first destination's message.
      if (nd > 1) holdBoth(t, nd - 1L)
      // Each record to its destination's array, in batch order; `count`
      // counts down to the next free place and ends at 0.
      var k = 0
      while (k < nd) { out(dsts(k)) = new Array[Rec[K, V]](count(dsts(k))); k += 1 }
      var i = 0
      while (i < n) {
        val d  = dstOf(i)
        val rs = out(d)
        rs(rs.length - count(d)) = batch(i)
        count(d) -= 1
        weights(d) += batch(i).weight
        batch(i) = null
        i += 1
      }
      k = 0
      while (k < nd) {
        val dst    = dsts(k)
        val weight = weights(dst)
        val rs     = out(dst)
        out(dst) = null
        weights(dst) = 0L
        net.send(worker, dst, weight * dataBytesPerRecord)(new Msg(t, rs, weight, dst))
        k += 1
      }
    }

    def onControlAdvance(f: Long): Unit =
      while (!buffered.isEmpty && buffered.firstKey() < f) {
        val t    = buffered.firstKey()
        val recs = buffered.pollFirstEntry().getValue
        // Routing work was already charged at first receipt; releasing the
        // buffer is a lookup we fold into scheduling noise.
        routeNow(t, recs.toSeq)
      }
  }

  val sOps: Array[SOp] = Array.tabulate(numWorkers)(new SOp(_))
  val fOps: Array[FOp] = Array.tabulate(numWorkers)(new FOp(_))

  // Frontier information circulates with a small lag before S reacts; one
  // pending wakeup coalesces all advances inside the lag window.
  private var wakeupPending = false
  main.onAdvance { _ =>
    if (!wakeupPending) {
      wakeupPending = true
      sim.at(sim.now + cost.progressLagNs) {
        wakeupPending = false
        sOps.foreach(_.tryApply())
      }
    }
  }
  control.onAdvance(f => fOps.foreach(_.onControlAdvance(f)))

  // -------------------------------------------------------------- migration

  /** Record of one bin movement, for tests and accounting. */
  final case class Migration(time: Long, bin: Int, from: Int, to: Int)
  val migrationLog = mutable.ArrayBuffer.empty[Migration]

  /** Engine-global insertion counter for post-dated records (FIFO ties). */
  private var notifySeq = 0L

  /** Ingest one configuration update (time, bin, worker). The simulation
    * keeps one shared routing table (§3.5: "although each F maintains its own
    * routing table … we present one for clarity"). A bin's update times must
    * increase: a backdated update would rewrite a configuration that F may
    * already have routed by, and its old owner would not be `assignTable`; a
    * second update at the same time would start a second migration of the
    * bin from an owner it has not reached yet.
    */
  private def ingestUpdate(t: Long, bin: Int, newWorker: Int): Unit = {
    if (binHistory(bin) == null) binHistory(bin) = new BinHistory(assignTable(bin))
    val history = binHistory(bin)
    require(t > history.lastTime, s"configuration update for bin $bin at $t is not after its update at ${history.lastTime}")
    val oldWorker = assignTable(bin)
    history.put(t, newWorker)
    assignTable(bin) = newWorker
    if (oldWorker != newWorker) {
      migrationLog += Migration(t, bin, oldWorker, newWorker)
      // F at the current owner anticipates the migration: hold t on `main`
      // until the state message is delivered, and on `probe` until installed.
      holdBoth(t)
      // Initiate once the configuration is final (control frontier passed t)
      // and S's output frontier reached t, i.e. all updates strictly before
      // t are absorbed (§3.4).
      control.whenPassed(t) {
        probe.whenPassed(t - 1)(initiate(t, bin, oldWorker, newWorker))
      }
    }
  }

  private def initiate(t: Long, binId: Int, from: Int, to: Int): Unit = {
    // Uninstall the bin's state from its current S (via the shared pointer of
    // §4.2), serialize it, and ship it to the new owner bearing timestamp t.
    val bin   = sOps(from).uninstall(binId)
    val bytes = math.max(1L, bin.sizeBytes)
    workers(from).exec((bytes * cost.serializeNsPerByte).toLong) { _ =>
      net.send(from, to, bytes) { _ =>
        main.release(t) // delivered: S's input frontier may pass t
        workers(to).exec((bytes * cost.deserializeNsPerByte).toLong) { _ =>
          sOps(to).install(t, bin)
        }
      }
    }
  }

  // ----------------------------------------------------------------- inputs

  /** An input's capability, held on each of `trackers` in order: it starts
    * at 0, [[advanceTo]] downgrades it and [[close]] drops it.
    */
  sealed abstract class Input(trackers: Tracker*) {
    private var cap  = 0L
    private var open = true
    trackers.foreach(_.hold(cap))

    def capability: Long = cap

    protected def requireOpenAt(t: Long, what: String): Unit =
      require(open && t >= cap, s"$what at $t behind capability $cap (open=$open)")

    /** Downgrade the capability; a no-op when `t` is already reached. */
    def advanceTo(t: Long): Unit = if (open && t > cap) { trackers.foreach(_.downgrade(cap, t)); cap = t }

    def close(): Unit = if (open) { open = false; trackers.foreach(_.release(cap)) }
  }

  /** Open-loop data input. Call `send` with nondecreasing times, then
    * `advanceTo` to let the epoch become applicable; `close` when done.
    */
  final class DataInput extends Input(main, probe) {

    /** Send `recs` to F at worker `w`; an empty send does nothing. */
    def send(w: Int, t: Long, recs: Seq[Rec[K, V]]): Unit = {
      requireOpenAt(t, "send")
      if (recs.nonEmpty) {
        holdBoth(t)
        fOps(w).receive(t, recs)
      }
    }
  }

  /** Configuration-update input (the paper's control stream). */
  final class ControlInput extends Input(control) {

    def send(t: Long, updates: Seq[(Int, Int)]): Unit = {
      requireOpenAt(t, "control send")
      // A bin named twice takes its last update.
      val last = mutable.HashMap.empty[Int, Int]
      updates.iterator.zipWithIndex.foreach { case ((bin, _), i) => last(bin) = i }
      updates.iterator.zipWithIndex.foreach { case ((bin, w), i) => if (last(bin) == i) ingestUpdate(t, bin, w) }
    }
  }

  val dataInput    = new DataInput
  val controlInput = new ControlInput

  // ------------------------------------------------------------------ noise

  /** Deterministic scheduling noise: per-worker hiccups with exponential
    * inter-arrival times and durations, until `horizonNs` or [[stopNoise]].
    */
  private var noiseStopped = false

  def stopNoise(): Unit = noiseStopped = true

  def enableNoise(horizonNs: Long): Unit = {
    if (cost.hiccupEveryNs <= 0 || cost.hiccupNs <= 0) return
    val rng = new scala.util.Random(noiseSeed)
    workers.foreach { w =>
      def next(from: Long): Unit = {
        val gap = (-math.log(1.0 - rng.nextDouble()) * cost.hiccupEveryNs).toLong
        val at  = from + math.max(1L, gap)
        if (at < horizonNs) sim.at(at) {
          if (!noiseStopped) {
            w.stall(math.max(1L, (-math.log(1.0 - rng.nextDouble()) * cost.hiccupNs).toLong))
            next(at)
          }
        }
      }
      next(rng.between(1L, cost.hiccupEveryNs + 1))
    }
  }
}

/** One bin's configuration, ascending by time, in primitive arrays: its
  * owner before any update (at `Long.MinValue`), then each update.
  */
private[core] final class BinHistory(initialOwner: Int) {
  private var times  = Array(Long.MinValue, 0L)
  private var owners = Array(initialOwner, 0)
  private var n      = 1

  /** Time of the latest update, or `Long.MinValue` if there is none. */
  def lastTime: Long = times(n - 1)

  /** Record that the bin belongs to `worker` from time `t` (> [[lastTime]]) on. */
  def put(t: Long, worker: Int): Unit = {
    if (n == times.length) {
      times = java.util.Arrays.copyOf(times, n * 2)
      owners = java.util.Arrays.copyOf(owners, n * 2)
    }
    times(n) = t
    owners(n) = worker
    n += 1
  }

  /** Owner by the latest update at or before `t`. */
  def ownerAt(t: Long): Int =
    if (t >= times(n - 1)) owners(n - 1)
    else {
      val i = java.util.Arrays.binarySearch(times, 0, n, t)
      owners(if (i >= 0) i else -i - 2)
    }
}

object MegaphoneEngine {

  /** Receives the latency of every applied input record, with primitive
    * parameters so that nothing is boxed per record. A record at time `t`
    * arrived uniformly over `[t, t + epochNs)`, so its `weight` latencies
    * when applied at `done` span `[loNs, hiNs]` =
    * `[max(0, done - t - epochNs), max(1, done - t)]`.
    */
  trait OnLatency {
    def apply(loNs: Long, hiNs: Long, weight: Long): Unit
  }
}
