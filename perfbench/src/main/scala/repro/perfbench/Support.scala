package repro.perfbench

import java.lang.management.ManagementFactory
import java.security.MessageDigest
import java.util.concurrent.atomic.AtomicLong
import javax.management.{NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._

/** Order statistics as reported by the benchmark: a median, plus the highest
  * of p90/p99/p999 that still has at least ten samples beyond it.
  */
object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile of `xs` (non-empty). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s   = xs.sorted
    val pos = q * (s.size - 1)
    val lo  = pos.toInt
    val hi  = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** "median=… p90=… n=…" with the highest percentile that has ≥ 10 samples
    * beyond it, or only the median when there are too few samples.
    */
  def describe(xs: Seq[Double]): String = if (xs.isEmpty) "n=0" else {
    val tail = Seq(0.999 -> "p999", 0.99 -> "p99", 0.9 -> "p90")
      .find { case (p, _) => xs.size * (1 - p) >= 10 - 1e-9 }
      .map { case (p, label) => f" $label=${quantile(xs, p)}%.4f" }
      .getOrElse("")
    f"median=${median(xs)}%.4f$tail n=${xs.size}"
  }
}

/** SHA-256 over a canonical text rendering of simulated outputs. Equal
  * digests mean bit-identical simulated results.
  */
final class Digest {
  private val md = MessageDigest.getInstance("SHA-256")
  def add(x: Any): Digest = { md.update((x.toString + "\n").getBytes("UTF-8")); this }
  def addAll(xs: IterableOnce[Any]): Digest = { xs.iterator.foreach(add); this }
  def hex: String = md.digest().map(b => f"${b & 0xff}%02x").mkString
}

/** Heap, GC and allocation counters read from the platform MXBeans. */
object Jvm {
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Largest heap in use right after a GC since the last [[resetHeapPeak]]. */
  private val heapPeak = new AtomicLong(0L)

  private val listener: NotificationListener = (n, _) =>
    if (n.getType == com.sun.management.GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info  = com.sun.management.GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val after = info.getGcInfo.getMemoryUsageAfterGc.asScala.valuesIterator.map(_.getUsed).sum
      heapPeak.accumulateAndGet(after, math.max(_, _))
    }
  gcBeans.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _                      => ()
  }

  def resetHeapPeak(): Unit = heapPeak.set(0L)
  def heapPeakBytes: Long  = heapPeak.get()

  def gcCount: Long = gcBeans.map(_.getCollectionCount).sum
  def gcMillis: Long = gcBeans.map(_.getCollectionTime).sum

  /** Bytes allocated so far by the calling thread. */
  def threadAllocated: Long = threads.getCurrentThreadAllocatedBytes
}

/** Minimal JSON rendering for the result line. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not a finite number")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else java.lang.Double.toString(d)
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
