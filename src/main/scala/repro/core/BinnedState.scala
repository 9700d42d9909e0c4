package repro.core

import repro.timely.EventHeap

/** A weighted record: `weight > 1` lets the counting benchmarks drive the
  * engine at the paper's full rates (4×10⁶ rec/s × minutes) without allocating
  * one object per record — the cost model charges `weight × perRecordNs` and
  * the histogram receives `weight` samples. Correctness tests use weight 1.
  */
final case class Rec[K, V](key: K, value: V, weight: Long = 1L)

/** User logic hosted by the S operator, the `fold` of Listing 1.
  *
  * The logic is data-parallel and functional in the §3.2 sense: for each key,
  * values are applied in timestamp order to per-key state; the logic may emit
  * outputs and schedule post-dated records for its own key via `notify`.
  */
trait BinLogic[K, V, O] {

  /** Per-key state. */
  type St

  def init(key: K): St

  /** Apply one (possibly weighted) record at `time`.
    *
    * @param out    emit an output (attributed the record's completion time)
    * @param notify schedule a post-dated record `(t', rec)` with `t' > time`
    *
    * `out` and `notify` refer to the record being applied, so they may be
    * called only during this call.
    */
  def fold(time: Long, rec: Rec[K, V], state: St, out: O => Unit, notify: (Long, Rec[K, V]) => Unit): St

  /** Serialized size of one key's state, for migration cost accounting. */
  def stateBytes(state: St): Long = 64L
}

/** The extended notificator of §4.3: pending `(time, key, val)` triples,
  * replayable for times not in advance of a frontier, and migrateable
  * alongside its bin's state.
  *
  * An [[EventHeap]] keyed on `(time, seq)`: `seq` breaks timestamp ties, and
  * the engine passes an engine-global insertion counter, so replay order is
  * total and deterministic. The heap allocates its storage on the first
  * [[schedule]]: an engine builds one notificator per bin, and most bins
  * never schedule anything.
  */
final class Notificator[K, V] extends EventHeap[Rec[K, V]] {

  /** Schedule a post-dated record; `seq` breaks timestamp ties FIFO so that
    * replay order is deterministic (engine-global insertion order).
    */
  def schedule(t: Long, rec: Rec[K, V], seq: Long = 0L): Unit = push(t, seq, rec)

  /** The record with the least `(time, seq)`; call only when non-empty. */
  def minRec: Rec[K, V] = minItem

  /** Move every triple with time strictly below `frontier` to the end of
    * `due`, as one sorted run; returns the total weight of the records moved.
    */
  def drainTo(frontier: Long, due: Notificator.Due[K, V]): Long = {
    var weight = 0L
    due.startRun()
    while (minTime < frontier) {
      val r = minRec
      due.append(minTime, minSeq, r)
      removeMin()
      weight += r.weight
    }
    weight
  }
}

object Notificator {

  /** The post-dated records due in one batch of S: each due bin's records
    * are appended as a run sorted by `(time, seq)`, [[sort]] merges the runs
    * once, and the batch then reads them front to back. Runs that continue
    * the previous one in order are not split, so a batch whose runs arrive
    * in order is not moved at all. The arrays are allocated on the first
    * append and reused across batches.
    */
  final class Due[K, V] {
    private var times  = Array.emptyLongArray
    private var seqs   = Array.emptyLongArray
    private var recs   = Array.emptyObjectArray
    private var n      = 0
    private var starts = Array.emptyIntArray // where each unmerged run begins
    private var runs   = 0
    private var pos    = 0                 // the next record to read
    private var open   = false             // true until a run's first append

    // Merge targets, swapped with the arrays above after each pass.
    private var times2 = Array.emptyLongArray
    private var seqs2  = Array.emptyLongArray
    private var recs2  = Array.emptyObjectArray

    def isEmpty: Boolean = pos == n
    def minTime: Long    = if (pos == n) Long.MaxValue else times(pos)
    def minRec: Rec[K, V] = recs(pos).asInstanceOf[Rec[K, V]]

    /** Drop the record at [[minTime]]; once all are read, the set is empty
      * for the next batch.
      */
    def removeMin(): Unit = {
      recs(pos) = null
      pos += 1
      if (pos == n) { pos = 0; n = 0; runs = 0 }
    }

    /** The next [[append]]s form a new run. */
    def startRun(): Unit = open = true

    def append(t: Long, seq: Long, rec: Rec[K, V]): Unit = {
      if (open) {
        open = false
        // A run that starts at or after the previous run's end continues it.
        if (n == 0 || t < times(n - 1) || (t == times(n - 1) && seq < seqs(n - 1))) {
          if (runs == starts.length) starts = java.util.Arrays.copyOf(starts, math.max(4, 2 * runs))
          starts(runs) = n
          runs += 1
        }
      }
      if (n == times.length) {
        val cap = math.max(16, 2 * n)
        times = java.util.Arrays.copyOf(times, cap)
        seqs = java.util.Arrays.copyOf(seqs, cap)
        recs = java.util.Arrays.copyOf(recs, cap)
      }
      times(n) = t; seqs(n) = seq; recs(n) = rec
      n += 1
    }

    /** Merge the runs pairwise, pass by pass, into one `(time, seq)` order. */
    def sort(): Unit = if (runs > 1) {
      if (times2.length < n) {
        times2 = new Array[Long](times.length)
        seqs2 = new Array[Long](times.length)
        recs2 = new Array[AnyRef](times.length)
      }
      while (runs > 1) {
        var r    = 0
        var kept = 0
        while (r < runs) {
          val lo  = starts(r)
          val mid = if (r + 1 < runs) starts(r + 1) else n
          val hi  = if (r + 2 < runs) starts(r + 2) else n
          merge(lo, mid, hi)
          starts(kept) = lo
          kept += 1
          r += 2
        }
        runs = kept
        val t = times; times = times2; times2 = t
        val s = seqs; seqs = seqs2; seqs2 = s
        val x = recs; recs = recs2; recs2 = x
      }
      java.util.Arrays.fill(recs2, 0, n, null)
    }

    /** Merge the sorted ranges `[lo, mid)` and `[mid, hi)` into the targets. */
    private def merge(lo: Int, mid: Int, hi: Int): Unit = {
      var i = lo
      var j = mid
      var k = lo
      while (k < hi) {
        val left = j == hi || (i < mid && (times(i) < times(j) || (times(i) == times(j) && seqs(i) < seqs(j))))
        val from = if (left) { i += 1; i - 1 } else { j += 1; j - 1 }
        times2(k) = times(from); seqs2(k) = seqs(from); recs2(k) = recs(from)
        k += 1
      }
    }
  }
}

/** One bin: a group of keys' states plus the bin's pending post-dated records.
  * This is the unit of migration.
  */
final class Bin[K, V, O](val id: Int, val logic: BinLogic[K, V, O]) {
  val states  = new BinStates[K, logic.St]
  val pending = new Notificator[K, V]

  /** Extra bytes this bin represents beyond live `states` entries — used by
    * the aggregate-mode benchmarks, where key counts are modelled, not stored.
    */
  var modeledBytes: Long = 0L

  def sizeBytes: Long = {
    var bytes = modeledBytes + 64L * pending.size
    var i     = 0
    while (i < states.slots) { if (states.occupied(i)) bytes += logic.stateBytes(states.valueAt(i)); i += 1 }
    bytes
  }

  def apply(time: Long, rec: Rec[K, V], out: O => Unit, notify: (Long, Rec[K, V]) => Unit): Unit = {
    var i = states.indexOf(rec.key)
    if (i < 0) i = states.insert(rec.key, logic.init(rec.key))
    states.setValueAt(i, logic.fold(time, rec, states.valueAt(i), out, notify))
  }
}

/** A bin's per-key states: open addressing with linear probing on a mixed
  * hash. The keys of one bin agree in `key % bins`, so a table indexed by the
  * low bits of `key.##`, as `mutable.HashMap` is, chains them all into one
  * bucket. Each slot keeps its key's mixed hash, which a probe compares
  * before the boxed key, and which growing reuses. Keys are never removed.
  * The arrays are allocated on the first insert.
  */
final class BinStates[K, S] {
  // Slot i: key at 2i and value at 2i + 1 of `kvs` (a null key marks a free
  // slot), the key's mixed hash at i of `hs`.
  private var kvs = Array.emptyObjectArray
  private var hs  = Array.emptyIntArray
  private var n   = 0

  /** Slot of `k`, or -1 when absent. */
  def indexOf(k: K): Int = if (n == 0) -1 else { val i = slot(k, mix(k)); if (kvs(2 * i) == null) -1 else i }

  def valueAt(i: Int): S             = kvs(2 * i + 1).asInstanceOf[S]
  def setValueAt(i: Int, v: S): Unit = kvs(2 * i + 1) = v.asInstanceOf[AnyRef]

  /** Number of slots; slot `i` holds a key when [[occupied]]. */
  def slots: Int                = hs.length
  def occupied(i: Int): Boolean = kvs(2 * i) != null

  /** Add an absent key; returns its slot. */
  def insert(k: K, v: S): Int = {
    if (2 * (n + 1) > hs.length) grow()
    val h = mix(k)
    val i = slot(k, h)
    kvs(2 * i) = k.asInstanceOf[AnyRef]
    kvs(2 * i + 1) = v.asInstanceOf[AnyRef]
    hs(i) = h
    n += 1
    i
  }

  def get(k: K): Option[S] = { val i = indexOf(k); if (i < 0) None else Some(valueAt(i)) }
  def apply(k: K): S       = get(k).getOrElse(throw new NoSuchElementException(s"key not found: $k"))
  def size: Int            = n
  def isEmpty: Boolean     = n == 0

  def iterator: Iterator[(K, S)] =
    hs.indices.iterator.filter(occupied).map(i => (kvs(2 * i).asInstanceOf[K], valueAt(i)))

  private def mix(k: Any): Int = { val h = k.## * 0x9E3779B9; h ^ (h >>> 16) }

  /** Slot of the key `k` with mixed hash `h`, or the free slot that ends its
    * probe sequence.
    */
  private def slot(k: Any, h: Int): Int = {
    val mask = hs.length - 1
    var i    = h & mask
    while (kvs(2 * i) != null && (hs(i) != h || kvs(2 * i) != k)) i = (i + 1) & mask
    i
  }

  private def grow(): Unit = {
    val oldKvs    = kvs
    val oldHashes = hs
    hs = new Array[Int](math.max(8, oldHashes.length * 2))
    kvs = new Array[AnyRef](2 * hs.length)
    val mask = hs.length - 1
    var j    = 0
    while (j < oldHashes.length) {
      if (oldKvs(2 * j) != null) {
        // Keys are distinct: each goes to the first free slot of its sequence.
        var i = oldHashes(j) & mask
        while (kvs(2 * i) != null) i = (i + 1) & mask
        kvs(2 * i) = oldKvs(2 * j); kvs(2 * i + 1) = oldKvs(2 * j + 1); hs(i) = oldHashes(j)
      }
      j += 1
    }
  }
}
