package repro.timely

/** A binary min-heap of `(time, seq, item)` triples over primitive arrays,
  * ordered by `(time, seq)` with strict comparisons in both sifts. It
  * allocates nothing per entry beyond the item itself; the arrays are
  * allocated on the first [[push]]. [[Sim]]'s event queue and the engine's
  * notificators are instances of it.
  */
class EventHeap[A <: AnyRef] {
  private var times = Array.emptyLongArray
  private var seqs  = Array.emptyLongArray
  private var items = Array.emptyObjectArray
  private var n     = 0

  def isEmpty: Boolean = n == 0
  def size: Int        = n
  def minTime: Long    = if (n == 0) Long.MaxValue else times(0)

  /** The least `seq` among the entries at [[minTime]]; call only when non-empty. */
  def minSeq: Long = seqs(0)

  /** The item with the least `(time, seq)`; call only when non-empty. */
  def minItem: A = items(0).asInstanceOf[A]

  def push(t: Long, seq: Long, item: A): Unit = {
    if (n == times.length) {
      val cap = math.max(8, n * 2)
      times = java.util.Arrays.copyOf(times, cap)
      seqs = java.util.Arrays.copyOf(seqs, cap)
      items = java.util.Arrays.copyOf(items, cap)
    }
    // Sift up: move parents down until the new entry's slot is found.
    var i = n
    n += 1
    while (i > 0 && { val p = (i - 1) >>> 1; t < times(p) || (t == times(p) && seq < seqs(p)) }) {
      val p = (i - 1) >>> 1
      times(i) = times(p); seqs(i) = seqs(p); items(i) = items(p)
      i = p
    }
    times(i) = t; seqs(i) = seq; items(i) = item
  }

  /** Remove the least entry (see [[minTime]] and [[minItem]]). */
  def removeMin(): Unit = {
    n -= 1
    val t = times(n)
    val s = seqs(n)
    val x = items(n)
    items(n) = null
    // Sift the last entry down from the root.
    var i    = 0
    var done = n == 0
    while (!done) {
      val l = 2 * i + 1
      if (l >= n) done = true
      else {
        val c = if (l + 1 < n && (times(l + 1) < times(l) || (times(l + 1) == times(l) && seqs(l + 1) < seqs(l)))) l + 1 else l
        if (times(c) < t || (times(c) == t && seqs(c) < s)) {
          times(i) = times(c); seqs(i) = seqs(c); items(i) = items(c)
          i = c
        } else done = true
      }
    }
    if (n > 0) { times(i) = t; seqs(i) = s; items(i) = x }
  }
}

/** Deterministic discrete-event simulation clock.
  *
  * All latencies in the reproduction are *simulated* nanoseconds, so runs are
  * reproducible bit-for-bit regardless of host load. This substitutes for the
  * paper's wall-clock measurements on a 16-worker cluster (see DESIGN.md).
  *
  * Determinism contract: events run in `(time, insertion seq)` order, where
  * `time` is the requested time clamped to `now` and `seq` counts calls to
  * [[at]]. Since `seq` is unique the order is total, so it does not depend on
  * the queue's implementation, an [[EventHeap]] of actions.
  */
final class Sim {
  private val events = new EventHeap[() => Unit]
  private var seqCtr = 0L
  private var nowNs  = 0L

  /** Current simulated time in nanoseconds. */
  def now: Long = nowNs

  /** Schedule `action` at simulated time `t` (clamped to `now`). */
  def at(t: Long)(action: => Unit): Unit = {
    seqCtr += 1
    events.push(math.max(t, nowNs), seqCtr, () => action)
  }

  /** Run events until the queue is empty or simulated time exceeds `until`. */
  def run(until: Long = Long.MaxValue): Unit = {
    while (!events.isEmpty && events.minTime <= until) {
      nowNs = events.minTime
      val action = events.minItem
      events.removeMin()
      action()
    }
    if (until != Long.MaxValue && nowNs < until) nowNs = until
  }

  /** True if no events remain. */
  def idle: Boolean = events.isEmpty
}

/** A simulated worker: a single CPU with a FIFO run queue.
  *
  * `exec` charges `costNs` of CPU time starting no earlier than both `sim.now`
  * and the completion of previously submitted work; queueing delay under load
  * is what produces the paper's latency spikes.
  */
final class SimWorker(val id: Int, sim: Sim) {
  private var freeAt = 0L

  /** Total busy nanoseconds, for utilization accounting. */
  var busyNs = 0L

  /** Submit a task; `onDone` fires at its completion time. Returns that time. */
  def exec(costNs: Long)(onDone: Long => Unit): Long = {
    val start = math.max(freeAt, sim.now)
    val done  = start + math.max(0L, costNs)
    freeAt = done
    busyNs += done - start
    sim.at(done)(onDone(done))
    done
  }

  /** Inject an exogenous stall (scheduling noise, GC hiccup). */
  def stall(costNs: Long): Unit = exec(costNs)(_ => ())
}

/** Simulated network: per-source-NIC serialization bandwidth plus a fixed
  * propagation latency. Bytes are counted as "in flight" from the moment the
  * sender enqueues them (serialized copies awaiting the NIC) until delivery —
  * the quantity behind the paper's Figure 20 memory spikes.
  */
final class Net(sim: Sim, bytesPerNs: Double, latencyNs: Long) {
  // Indexed by source worker; grown on the first send from a new source.
  private var nicFreeAt = Array.emptyLongArray
  private var inFlight  = Array.emptyLongArray

  /** Serialized-but-undelivered bytes sent by worker `src`. */
  def inFlightBySrc(src: Int): Long = if (src < inFlight.length) inFlight(src) else 0L

  def inFlightBytes: Long = inFlight.sum

  /** Send `bytes` from `src` to `dst`; `deliver` fires at arrival time.
    * Local sends are immediate and never counted as in flight.
    */
  def send(src: Int, dst: Int, bytes: Long)(deliver: Long => Unit): Unit = {
    if (src == dst) {
      sim.at(sim.now)(deliver(sim.now))
    } else {
      if (src >= nicFreeAt.length) {
        nicFreeAt = java.util.Arrays.copyOf(nicFreeAt, src + 1)
        inFlight = java.util.Arrays.copyOf(inFlight, src + 1)
      }
      val start = math.max(nicFreeAt(src), sim.now)
      val xmit  = if (bytesPerNs <= 0) 0L else math.ceil(bytes / bytesPerNs).toLong
      val done  = start + xmit
      nicFreeAt(src) = done
      inFlight(src) += bytes
      sim.at(done + latencyNs) {
        inFlight(src) -= bytes
        deliver(sim.now)
      }
    }
  }
}
