package repro.timely

/** Pointstamp-count progress tracking for totally ordered (`Long`) timestamps.
  *
  * A [[Tracker]] maintains the multiset of outstanding pointstamps on one
  * dataflow edge: message holds (in-flight records) plus capability holds
  * (operators that may still produce output at a time). The frontier is the
  * minimum outstanding timestamp, mirroring Naiad's progress protocol
  * specialised to a total order — Definition 1 of the paper collapses to a
  * single watermark in this case.
  *
  * Listeners registered with [[onAdvance]] fire whenever the frontier strictly
  * advances; this is the passive coordination Megaphone's F operators use to
  * gate migrations on the output frontier of S.
  */
final class Tracker(val name: String) {
  // Outstanding pointstamp counts, plus an [[EventHeap]] of the times in
  // `counts`. A time whose count drops to zero stays in both until it is the
  // least of `times`, so `times` never holds a time twice and its least time,
  // whose count is never zero, is the frontier.
  private val counts = new TrackerCounts
  private val times  = new EventHeap[AnyRef]

  private var listeners = List.empty[Long => Unit]
  private val waiters   = new java.util.TreeMap[Long, List[() => Unit]]()
  private var notifying = false

  /** Current frontier: least outstanding pointstamp, or `Long.MaxValue` when
    * the edge is drained (no message can ever arrive again).
    */
  def frontier: Long = times.minTime

  /** Register interest in frontier advances. Fired with the new frontier. */
  def onAdvance(f: Long => Unit): Unit = listeners ::= f

  /** Hold `n` pointstamps at time `t` (a message send or a capability). */
  def hold(t: Long, n: Long = 1L): Unit = {
    if (n <= 0) throw new IllegalArgumentException(s"requirement failed: hold of $n at $t")
    if (counts.add(t, n)) times.push(t, 0L, null)
  }

  /** Release `n` pointstamps at `t`; fires listeners if the frontier moved. */
  def release(t: Long, n: Long = 1L): Unit = {
    if (n <= 0) throw new IllegalArgumentException(s"requirement failed: release of $n at $t")
    val left = counts.sub(t, n)
    if (left < 0) throw new IllegalArgumentException(s"requirement failed: tracker $name: negative count at $t")
    // The frontier moves only when its own time is used up: then drop every
    // time whose count reached zero while it was not the earliest.
    if (left == 0 && t == times.minTime) {
      while (!times.isEmpty && counts.get(times.minTime) == 0L) { counts.remove(times.minTime); times.removeMin() }
      maybeNotify(t)
    }
  }

  /** Atomically hold at `to` then release at `from` — a capability downgrade
    * that can never transiently empty the tracker.
    */
  def downgrade(from: Long, to: Long, n: Long = 1L): Unit = {
    require(to >= from, s"tracker $name: downgrade $from -> $to goes backwards")
    hold(to, n)
    release(from, n)
  }

  /** True when all work at times ≤ `t` is done (frontier strictly beyond). */
  def passed(t: Long): Boolean = frontier > t

  /** Run `action` once the frontier strictly passes `t` (maybe immediately). */
  def whenPassed(t: Long)(action: => Unit): Unit = {
    if (passed(t)) action
    else waiters.merge(t, List(() => action), (a, b) => b ::: a)
  }

  private def maybeNotify(pre: Long): Unit = {
    if (notifying) return // listeners re-entering will observe the final state
    notifying = true
    try {
      var prev = pre
      var f    = frontier
      while (f > prev) {
        prev = f
        // Listeners may register more listeners or move pointstamps.
        var ls = listeners
        while (ls.nonEmpty) { ls.head(f); ls = ls.tail }
        // Waiters may hold new (earlier) pointstamps while running — always
        // compare against the *live* frontier, never the snapshot.
        while (!waiters.isEmpty && waiters.firstKey() < frontier) {
          val e = waiters.pollFirstEntry()
          e.getValue.reverse.foreach(_())
        }
        f = frontier
      }
    } finally notifying = false
  }
}

/** A [[Tracker]]'s pointstamp counts by time: open addressing with linear
  * probing on a Fibonacci hash of the time. Removal shifts the following
  * entries of the probe sequence back, so there are no tombstones and no
  * repacks. A time with count 0 stays until [[remove]]d. A negative count
  * marks a free slot.
  */
private[timely] final class TrackerCounts {
  private var times  = new Array[Long](16)
  private var counts = freeSlots(16)
  private var shift  = 60 // 64 - log2(capacity)
  private var n      = 0

  def size: Int = n

  /** Home slot of `t` at the current capacity. */
  private[timely] def home(t: Long): Int = ((t * 0x9E3779B97F4A7C15L) >>> shift).toInt

  private[timely] def capacity: Int = times.length

  /** Slot of `t`, or of the free slot that ends its probe sequence. */
  private def slot(t: Long): Int = {
    val mask = times.length - 1
    var i    = home(t)
    while (counts(i) >= 0 && times(i) != t) i = (i + 1) & mask
    i
  }

  /** Count at `t`, or -1 when `t` is absent. */
  def get(t: Long): Long = counts(slot(t))

  /** Add `n` (> 0) at `t`; true when `t` was absent. */
  def add(t: Long, n: Long): Boolean = {
    var i = slot(t)
    if (counts(i) >= 0) { counts(i) += n; false }
    else {
      if (2 * (this.n + 1) > times.length) { grow(); i = slot(t) }
      times(i) = t
      counts(i) = n
      this.n += 1
      true
    }
  }

  /** Subtract `n` at `t` and return the count left, which is negative when
    * `t` held fewer than `n` (then nothing changes).
    */
  def sub(t: Long, n: Long): Long = {
    val i = slot(t)
    val c = counts(i)
    if (c < n) (if (c < 0) -n else c - n)
    else { counts(i) = c - n; c - n }
  }

  /** Remove `t`, which must be present. */
  def remove(t: Long): Unit = {
    val mask = times.length - 1
    var hole = slot(t)
    var j    = (hole + 1) & mask
    // Move back every later entry of the run whose home is not between the
    // hole and its slot (cyclically): it would be unreachable past the hole.
    while (counts(j) >= 0) {
      val h = home(times(j))
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        times(hole) = times(j)
        counts(hole) = counts(j)
        hole = j
      }
      j = (j + 1) & mask
    }
    counts(hole) = -1L
    n -= 1
  }

  private def freeSlots(cap: Int): Array[Long] = { val a = new Array[Long](cap); java.util.Arrays.fill(a, -1L); a }

  private def grow(): Unit = {
    val oldTimes  = times
    val oldCounts = counts
    times = new Array[Long](2 * oldTimes.length)
    counts = freeSlots(times.length)
    shift -= 1
    var j = 0
    while (j < oldTimes.length) {
      if (oldCounts(j) >= 0) { val i = slot(oldTimes(j)); times(i) = oldTimes(j); counts(i) = oldCounts(j) }
      j += 1
    }
  }
}
