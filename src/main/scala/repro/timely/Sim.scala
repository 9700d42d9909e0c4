package repro.timely

/** Deterministic discrete-event simulation clock.
  *
  * All latencies in the reproduction are *simulated* nanoseconds, so runs are
  * reproducible bit-for-bit regardless of host load. This substitutes for the
  * paper's wall-clock measurements on a 16-worker cluster (see DESIGN.md).
  *
  * Determinism contract: events run in `(time, insertion seq)` order, where
  * `time` is the requested time clamped to `now` and `seq` counts calls to
  * [[at]]. Since `seq` is unique the order is total, so it does not depend on
  * the queue's implementation: a binary min-heap over primitive arrays, which
  * allocates nothing per event beyond the action itself.
  */
final class Sim {
  private var times   = Array.emptyLongArray
  private var seqs    = Array.emptyLongArray
  private var actions = new Array[() => Unit](0)
  private var size    = 0
  private var seqCtr  = 0L
  private var nowNs   = 0L

  /** Current simulated time in nanoseconds. */
  def now: Long = nowNs

  /** Schedule `action` at simulated time `t` (clamped to `now`). */
  def at(t: Long)(action: => Unit): Unit = {
    seqCtr += 1
    push(math.max(t, nowNs), seqCtr, () => action)
  }

  /** Run events until the queue is empty or simulated time exceeds `until`. */
  def run(until: Long = Long.MaxValue): Unit = {
    while (size > 0 && times(0) <= until) {
      nowNs = times(0)
      pop()()
    }
    if (until != Long.MaxValue && nowNs < until) nowNs = until
  }

  /** True if no events remain. */
  def idle: Boolean = size == 0

  private def before(i: Int, j: Int): Boolean =
    times(i) < times(j) || (times(i) == times(j) && seqs(i) < seqs(j))

  private def set(i: Int, t: Long, s: Long, a: () => Unit): Unit = { times(i) = t; seqs(i) = s; actions(i) = a }

  private def move(from: Int, to: Int): Unit = set(to, times(from), seqs(from), actions(from))

  private def push(t: Long, s: Long, a: () => Unit): Unit = {
    if (size == times.length) {
      val cap = math.max(64, size * 2)
      times = java.util.Arrays.copyOf(times, cap)
      seqs = java.util.Arrays.copyOf(seqs, cap)
      actions = java.util.Arrays.copyOf(actions, cap)
    }
    // Sift up: move parents down until the new event's slot is found.
    var i = size
    size += 1
    while (i > 0 && { val p = (i - 1) >>> 1; t < times(p) || (t == times(p) && s < seqs(p)) }) {
      val p = (i - 1) >>> 1
      move(p, i)
      i = p
    }
    set(i, t, s, a)
  }

  /** Remove the earliest event and return its action. */
  private def pop(): () => Unit = {
    val top = actions(0)
    size -= 1
    if (size > 0) {
      // Sift the last event down from the root.
      val last = size
      var i    = 0
      var done = false
      while (!done) {
        val l = 2 * i + 1
        if (l >= size) done = true
        else {
          val c = if (l + 1 < size && before(l + 1, l)) l + 1 else l
          if (before(c, last)) { move(c, i); i = c }
          else done = true
        }
      }
      move(last, i)
    }
    actions(size) = null
    top
  }
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

  /** Earliest time new work could start. */
  def freeTime: Long = math.max(freeAt, sim.now)
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
