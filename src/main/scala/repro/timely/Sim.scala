package repro.timely

/** A priority queue of `(time, seq, item)` triples ordered by `(time, seq)`:
  * a binary min-heap over primitive arrays with strict comparisons in both
  * sifts, plus a FIFO [[EventHeap.Run]]. An entry pushed no earlier than the
  * run's last one is appended to the run and never sifted; any other goes to
  * the heap, and the least of the two heads comes out first (the heap's on a
  * tie). A queue filled in nondecreasing order, like a notificator's
  * retractions at `t + window`, thus costs O(1) per entry. Nothing is
  * allocated per entry beyond the item itself; the run and the heap's arrays
  * are allocated on the first push that needs them. [[Sim]]'s event queue,
  * a [[Tracker]]'s times, each bin's notificator and S's input buffer,
  * wake-ups and due set are instances of it.
  */
class EventHeap[A <: AnyRef] {
  private var times = Array.emptyLongArray
  private var seqs  = Array.emptyLongArray
  private var items = Array.emptyObjectArray
  private var n     = 0
  private var run: EventHeap.Run = null

  def isEmpty: Boolean = n == 0 && (run == null || run.n == 0)
  def size: Int        = if (run == null) n else n + run.n
  def minTime: Long    = if (runFirst) run.headTime else if (n == 0) Long.MaxValue else times(0)

  /** The least `seq` among the entries at [[minTime]]; call only when non-empty. */
  def minSeq: Long = if (runFirst) run.headSeq else seqs(0)

  /** The item with the least `(time, seq)`; call only when non-empty. */
  def minItem: A = (if (runFirst) run.headItem else items(0)).asInstanceOf[A]

  private def runFirst: Boolean = run != null && run.first

  def push(t: Long, seq: Long, item: A): Unit = {
    if (run == null) run = new EventHeap.Run
    if (run.n == 0 || t > run.lastTime || (t == run.lastTime && seq >= run.lastSeq)) {
      run.push(t, seq, item)
      if (run.n == 1) settle()
    } else heapPush(t, seq, item)
  }

  /** Remove the least entry (see [[minTime]] and [[minItem]]). */
  def removeMin(): Unit = {
    if (runFirst) run.pop() else heapPop()
    settle()
  }

  /** Decide whether the run's head or the heap's top comes out next. */
  private def settle(): Unit =
    run.first = run.n > 0 && (n == 0 || run.headTime < times(0) || (run.headTime == times(0) && run.headSeq < seqs(0)))

  private def heapPush(t: Long, seq: Long, item: A): Unit = {
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
    if (i == 0) settle()
  }

  private def heapPop(): Unit = {
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

object EventHeap {

  /** An [[EventHeap]]'s FIFO of entries in nondecreasing `(time, seq)`
    * order, each with a `Long` tag: a ring buffer that doubles when full.
    * `first` is true when it is non-empty and its head is the queue's least
    * entry. A [[Lane]] keeps its events in one too.
    */
  private[timely] final class Run {
    private var times = new Array[Long](8)
    private var seqs  = new Array[Long](8)
    private var tags  = new Array[Long](8)
    private var items = new Array[AnyRef](8)
    private var head  = 0
    var n             = 0
    var first         = false
    var lastTime      = 0L
    var lastSeq       = 0L

    def headTime: Long   = times(head)
    def headSeq: Long    = seqs(head)
    def headTag: Long    = tags(head)
    def headItem: AnyRef = items(head)

    def push(t: Long, seq: Long, item: AnyRef, tag: Long = 0L): Unit = {
      if (n == times.length) grow()
      val i = (head + n) & (times.length - 1)
      times(i) = t; seqs(i) = seq; tags(i) = tag; items(i) = item
      n += 1
      lastTime = t
      lastSeq = seq
    }

    def pop(): Unit = {
      items(head) = null
      head = (head + 1) & (times.length - 1)
      n -= 1
    }

    /** Double the full ring, unwrapping it to start at 0. */
    private def grow(): Unit = {
      val cap   = 2 * times.length
      val first = times.length - head
      def copy[B <: AnyRef](a: B, b: B): B = {
        System.arraycopy(a, head, b, 0, first)
        System.arraycopy(a, 0, b, first, head)
        b
      }
      times = copy(times, new Array[Long](cap))
      seqs = copy(seqs, new Array[Long](cap))
      tags = copy(tags, new Array[Long](cap))
      items = copy(items, new Array[AnyRef](cap))
      head = 0
    }
  }
}

/** Deterministic discrete-event simulation clock.
  *
  * All latencies in the reproduction are *simulated* nanoseconds, so runs are
  * reproducible bit-for-bit regardless of host load. This substitutes for the
  * paper's wall-clock measurements on a 16-worker cluster (see DESIGN.md).
  *
  * Determinism contract: events run in `(time, insertion seq)` order, where
  * `time` is the requested time clamped to `now` and `seq` counts every event
  * scheduled, by [[at]], by [[SimWorker.exec]] or by [[Net.send]]. Since `seq`
  * is unique the order is total, so it does not depend on how the queue is
  * kept. It is kept as an [[EventHeap]] of callbacks plus FIFO [[Lane]]s
  * (each an [[EventHeap.Run]]): a worker's completions and one source NIC's
  * remote deliveries are each scheduled in nondecreasing `(time, seq)`
  * order, so each goes to a lane of its own and only the lane's head waits
  * in the heap.
  */
final class Sim {
  private val events = new EventHeap[Long => Unit]
  private var seqCtr = 0L
  private var nowNs  = 0L
  private var ran    = 0L

  /** Current simulated time in nanoseconds. */
  def now: Long = nowNs

  /** Number of events run so far. */
  def executed: Long = ran

  /** Schedule `action` at simulated time `t` (clamped to `now`). */
  def at(t: Long)(action: => Unit): Unit = push(math.max(t, nowNs), nextSeq(), _ => action)

  /** Queue `f`, which is called with its time `t` (at least `now`). */
  private[timely] def push(t: Long, seq: Long, f: Long => Unit): Unit = events.push(t, seq, f)

  private[timely] def nextSeq(): Long = { seqCtr += 1; seqCtr }

  /** Run events until the queue is empty or simulated time exceeds `until`. */
  def run(until: Long = Long.MaxValue): Unit = {
    while (!events.isEmpty && events.minTime <= until) {
      nowNs = events.minTime
      val f = events.minItem
      events.removeMin()
      ran += 1
      f(nowNs)
    }
    if (until != Long.MaxValue && nowNs < until) nowNs = until
  }

  /** True if no events remain. */
  def idle: Boolean = events.isEmpty
}

/** A FIFO of events whose times never decrease, kept in an
  * [[EventHeap.Run]] with a `Long` tag each, which is passed to [[popped]]
  * just before the event's callback runs. While the lane is non-empty its
  * head, and only its head, is in [[Sim]]'s heap; running the head puts the
  * next one there.
  */
private[timely] class Lane(sim: Sim) extends (Long => Unit) {
  private val run = new EventHeap.Run

  /** Append `f` at `t`, which must be no earlier than the lane's last time
    * nor than `now`.
    */
  def push(t: Long, f: Long => Unit, tag: Long = 0L): Unit = {
    if (t < run.lastTime || t < sim.now)
      throw new IllegalArgumentException(s"requirement failed: lane time $t is behind ${math.max(run.lastTime, sim.now)}")
    val seq = sim.nextSeq()
    run.push(t, seq, f, tag)
    if (run.n == 1) sim.push(t, seq, this)
  }

  /** Called by [[Sim]] when the head is due: runs the head's callback. */
  def apply(t: Long): Unit = {
    val f   = run.headItem.asInstanceOf[Long => Unit]
    val tag = run.headTag
    run.pop()
    if (run.n > 0) sim.push(run.headTime, run.headSeq, this)
    popped(tag)
    f(t)
  }

  /** Hook run with an event's tag just before its callback. */
  protected def popped(tag: Long): Unit = ()
}

/** A simulated worker: a single CPU with a FIFO run queue.
  *
  * `exec` charges `costNs` of CPU time starting no earlier than both `sim.now`
  * and the completion of previously submitted work; queueing delay under load
  * is what produces the paper's latency spikes. Completions are therefore
  * nondecreasing in time and wait in the worker's [[Lane]].
  */
final class SimWorker(val id: Int, sim: Sim) {
  private var freeAt = 0L
  private val done   = new Lane(sim)

  /** Total busy nanoseconds, for utilization accounting. */
  var busyNs = 0L

  /** Submit a task; `onDone` is called with its completion time, when it
    * completes. Returns that time.
    */
  def exec(costNs: Long)(onDone: Long => Unit): Long = {
    val start = math.max(freeAt, sim.now)
    val end   = start + math.max(0L, costNs)
    freeAt = end
    busyNs += end - start
    done.push(end, onDone)
    end
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

  /** One source's NIC: its remote deliveries, in the order they leave, with
    * each message's bytes as the tag.
    */
  private final class Nic extends Lane(sim) {
    var freeAt   = 0L
    var inFlight = 0L
    override protected def popped(bytes: Long): Unit = inFlight -= bytes
  }

  // Indexed by source worker; grown on the first send from a new source.
  private var nics = new Array[Nic](0)

  /** Serialized-but-undelivered bytes sent by worker `src`. */
  def inFlightBySrc(src: Int): Long = if (src < nics.length) nics(src).inFlight else 0L

  def inFlightBytes: Long = nics.iterator.map(_.inFlight).sum

  /** Send `bytes` from `src` to `dst`; `deliver` is called with the arrival
    * time, at arrival. Local sends are immediate and never counted as in
    * flight.
    */
  def send(src: Int, dst: Int, bytes: Long)(deliver: Long => Unit): Unit = {
    if (src == dst) sim.push(sim.now, sim.nextSeq(), deliver)
    else {
      if (src >= nics.length) {
        val old = nics
        nics = Array.tabulate(src + 1)(i => if (i < old.length) old(i) else new Nic)
      }
      val nic   = nics(src)
      val start = math.max(nic.freeAt, sim.now)
      val xmit  = if (bytesPerNs <= 0) 0L else math.ceil(bytes / bytesPerNs).toLong
      nic.freeAt = start + xmit
      nic.inFlight += bytes
      nic.push(nic.freeAt + latencyNs, deliver, bytes)
    }
  }
}
