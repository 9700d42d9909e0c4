package repro.timely

import scala.collection.mutable

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
  // Outstanding pointstamp counts, plus a binary min-heap of the times in
  // `counts`. A time whose count drops to zero stays in both until it reaches
  // the top of the heap, so the heap never holds a time twice and its top is
  // always the frontier.
  private val counts = mutable.LongMap.empty[Long]
  private var heap   = Array.emptyLongArray
  private var live   = 0

  private var listeners = List.empty[Long => Unit]
  private val waiters   = new java.util.TreeMap[Long, List[() => Unit]]()
  private var notifying = false

  /** Current frontier: least outstanding pointstamp, or `Long.MaxValue` when
    * the edge is drained (no message can ever arrive again).
    */
  def frontier: Long = if (live == 0) Long.MaxValue else heap(0)

  /** Register interest in frontier advances. Fired with the new frontier. */
  def onAdvance(f: Long => Unit): Unit = listeners ::= f

  /** Hold `n` pointstamps at time `t` (a message send or a capability). */
  def hold(t: Long, n: Long = 1L): Unit = {
    if (n <= 0) throw new IllegalArgumentException(s"requirement failed: hold of $n at $t")
    val c = counts.getOrElse(t, -1L)
    if (c < 0) heapPush(t)
    counts(t) = math.max(c, 0L) + n
  }

  /** Release `n` pointstamps at `t`; fires listeners if the frontier moved. */
  def release(t: Long, n: Long = 1L): Unit = {
    if (n <= 0) throw new IllegalArgumentException(s"requirement failed: release of $n at $t")
    val pre  = frontier
    val left = counts.getOrElse(t, 0L) - n
    if (left < 0) throw new IllegalArgumentException(s"requirement failed: tracker $name: negative count at $t")
    counts(t) = left
    // Drop times whose count reached zero once they are the earliest.
    while (live > 0 && counts(heap(0)) == 0L) counts -= heapPop()
    maybeNotify(pre)
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

  private def heapPush(t: Long): Unit = {
    if (live == heap.length) heap = java.util.Arrays.copyOf(heap, math.max(16, live * 2))
    var i = live
    live += 1
    while (i > 0 && t < heap((i - 1) >>> 1)) {
      heap(i) = heap((i - 1) >>> 1)
      i = (i - 1) >>> 1
    }
    heap(i) = t
  }

  private def heapPop(): Long = {
    val top = heap(0)
    live -= 1
    val last = heap(live)
    var i    = 0
    var done = live == 0
    while (!done) {
      val l = 2 * i + 1
      if (l >= live) done = true
      else {
        val c = if (l + 1 < live && heap(l + 1) < heap(l)) l + 1 else l
        if (heap(c) < last) { heap(i) = heap(c); i = c }
        else done = true
      }
    }
    if (live > 0) heap(i) = last
    top
  }
}
