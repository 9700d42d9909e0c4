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

/** One bin: a group of keys' states plus the bin's pending post-dated records.
  * This is the unit of migration.
  */
final class Bin[K, V, O](val id: Int, val logic: BinLogic[K, V, O]) {
  val states = new BinStates[K, logic.St]

  /** The extended notificator of §4.3: the bin's pending `(time, key, val)`
    * triples, keyed on `(time, seq)`, replayed for times below a frontier
    * and migrated with the bin. `seq` is the engine-global order in which
    * the records were posted, so replay order is total and deterministic.
    * The heap allocates its storage on the first push, and most bins never
    * post anything.
    */
  val pending = new EventHeap[Rec[K, V]]

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
