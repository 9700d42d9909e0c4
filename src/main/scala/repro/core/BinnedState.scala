package repro.core

import repro.timely.EventHeap
import scala.collection.mutable

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
  * total and deterministic. The heap allocates its arrays on the first
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

  /** Move every triple with time strictly below `frontier` into `into`;
    * returns the total weight of the records moved.
    */
  def drainInto(frontier: Long, into: Notificator[K, V]): Long = {
    var weight = 0L
    while (minTime < frontier) {
      val r = minRec
      into.schedule(minTime, r, minSeq)
      removeMin()
      weight += r.weight
    }
    weight
  }

  /** Remove and return all triples with time strictly below `frontier`, in
    * (timestamp, insertion) order.
    */
  def drain(frontier: Long): Seq[(Long, Long, Rec[K, V])] = drainWhile(_ < frontier)

  /** Remove everything, in (timestamp, insertion) order. */
  def drainAll(): Seq[(Long, Long, Rec[K, V])] = drainWhile(_ => true)

  private def drainWhile(due: Long => Boolean): Seq[(Long, Long, Rec[K, V])] = {
    val out = mutable.ArrayBuffer.empty[(Long, Long, Rec[K, V])]
    while (!isEmpty && due(minTime)) { out += ((minTime, minSeq, minRec)); removeMin() }
    out.toSeq
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

  def sizeBytes: Long =
    modeledBytes + states.valuesIterator.map(logic.stateBytes).sum + 64L * pending.size

  def apply(time: Long, rec: Rec[K, V], out: O => Unit, notify: (Long, Rec[K, V]) => Unit): Unit = {
    var i = states.indexOf(rec.key)
    if (i < 0) i = states.insert(rec.key, logic.init(rec.key))
    states.setValueAt(i, logic.fold(time, rec, states.valueAt(i), out, notify))
  }
}

/** A bin's per-key states: open addressing with linear probing on a mixed
  * hash. The keys of one bin agree in `key % bins`, so a table indexed by the
  * low bits of `key.##`, as `mutable.HashMap` is, chains them all into one
  * bucket. Keys are never removed. The arrays are allocated on the first
  * insert.
  */
final class BinStates[K, S] {
  // Keys and values by slot; a null key marks a free slot.
  private var ks = Array.emptyObjectArray
  private var vs = Array.emptyObjectArray
  private var n  = 0

  /** Slot of `k`, or -1 when absent. */
  def indexOf(k: K): Int = if (n == 0) -1 else { val i = slot(k); if (ks(i) == null) -1 else i }

  def valueAt(i: Int): S             = vs(i).asInstanceOf[S]
  def setValueAt(i: Int, v: S): Unit = vs(i) = v.asInstanceOf[AnyRef]

  /** Add an absent key; returns its slot. */
  def insert(k: K, v: S): Int = {
    if (2 * (n + 1) > ks.length) grow()
    val i = slot(k)
    ks(i) = k.asInstanceOf[AnyRef]
    vs(i) = v.asInstanceOf[AnyRef]
    n += 1
    i
  }

  def get(k: K): Option[S] = { val i = indexOf(k); if (i < 0) None else Some(valueAt(i)) }
  def apply(k: K): S       = get(k).getOrElse(throw new NoSuchElementException(s"key not found: $k"))
  def size: Int            = n
  def isEmpty: Boolean     = n == 0

  def iterator: Iterator[(K, S)] =
    ks.indices.iterator.filter(ks(_) != null).map(i => (ks(i).asInstanceOf[K], valueAt(i)))

  def valuesIterator: Iterator[S] = iterator.map(_._2)

  private def slot(k: Any): Int = {
    val mask = ks.length - 1
    val h    = k.## * 0x9E3779B9
    var i    = (h ^ (h >>> 16)) & mask
    while (ks(i) != null && ks(i) != k) i = (i + 1) & mask
    i
  }

  private def grow(): Unit = {
    val oldKeys = ks
    val oldVals = vs
    ks = new Array[AnyRef](math.max(8, oldKeys.length * 2))
    vs = new Array[AnyRef](ks.length)
    var j = 0
    while (j < oldKeys.length) {
      if (oldKeys(j) != null) { val i = slot(oldKeys(j)); ks(i) = oldKeys(j); vs(i) = oldVals(j) }
      j += 1
    }
  }
}
