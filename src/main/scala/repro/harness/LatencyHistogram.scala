package repro.harness

/** Log-binned latency histogram, mirroring the paper's harness ("recorded in
  * a histogram of logarithmically-sized bins"): 16 buckets per power of two
  * of nanoseconds, weights may be fractional (weighted records spread over an
  * arrival interval contribute proportionally).
  */
final class LatencyHistogram {
  import LatencyHistogram._

  private val counts   = new Array[Double](Buckets)
  private var total    = 0.0
  private var maxSeen  = 0L

  def add(ns: Long, weight: Double = 1.0): Unit = {
    require(weight >= 0)
    counts(bucketOf(ns)) += weight
    total += weight
    if (ns > maxSeen) maxSeen = ns
  }

  /** Add `weight` records with latencies uniform over [lo, hi]. */
  def addRange(lo: Long, hi: Long, weight: Double): Unit = {
    val l = math.max(1L, lo)
    val h = math.max(l, hi)
    if (h > maxSeen) maxSeen = h
    total += weight
    if (l == h) { counts(bucketOf(l)) += weight; return }
    val span = (h - l).toDouble
    var b    = bucketOf(l)
    val bEnd = bucketOf(h)
    while (b <= bEnd) {
      val bLo = bucketLow(b)
      val bHi = bucketLow(b + 1)
      if (b >= ExactFrom && b < bEnd && bLo >= l) {
        // Every bucket from b up to the last one below bEnd is covered in
        // full, and those of b's power of two share its width: compute their
        // share `weight * (overlap / span)` once.
        val share = weight * ((bHi - bLo) / span)
        val stop  = math.min(b | (SubBuckets - 1), bEnd - 1)
        while (b <= stop) { counts(b) += share; b += 1 }
      } else {
        val overlap = math.min(h + 1, bHi) - math.max(l, bLo)
        if (overlap > 0) counts(b) += weight * (overlap / span)
        b += 1
      }
    }
  }

  def count: Double = total
  def max: Long     = maxSeen

  /** Value below which fraction `q` of the mass lies (upper bucket edge). */
  def percentile(q: Double): Long = {
    require(q >= 0 && q <= 1)
    if (total == 0) return 0L
    val target = q * total
    var acc    = 0.0
    var b      = 0
    while (b < Buckets) {
      acc += counts(b)
      if (acc >= target) return math.min(maxSeen, bucketLow(b + 1) - 1)
      b += 1
    }
    maxSeen
  }

  /** (upper-edge-ns, ccdf) rows for buckets with mass, like Fig 13a. */
  def ccdf: Seq[(Long, Double)] = {
    var acc = total
    (0 until Buckets).flatMap { b =>
      val row = if (counts(b) > 0 && total > 0) Some((bucketLow(b + 1) - 1, acc / total)) else None
      acc -= counts(b)
      row
    }
  }
}

object LatencyHistogram {
  /** 16 sub-buckets per power of two, 64 powers. */
  private val SubBits    = 4
  private val SubBuckets = 1 << SubBits
  private val Buckets    = 64 << SubBits

  /** Buckets from here on (values from 16 ns) split their power of two into
    * equal widths.
    */
  private val ExactFrom = SubBits << SubBits

  private[harness] def bucketOf(ns: Long): Int = {
    val v    = math.max(1L, ns)
    val log2 = 63 - java.lang.Long.numberOfLeadingZeros(v)
    val sub  = if (log2 == 0) 0 else ((v - (1L << log2)) << SubBits >>> log2).toInt
    math.min(Buckets - 1, (log2 << SubBits) + sub)
  }

  private[harness] def bucketLow(b: Int): Long = {
    if (b <= 0) return 1L
    val log2 = b >> SubBits
    val sub  = b & ((1 << SubBits) - 1)
    (1L << log2) + (sub.toLong << log2 >> SubBits)
  }
}

/** Windowed latency time-series: per fixed window of completion time, the
  * maximum observed latency — the paper's 250 ms timeline samples.
  */
final class LatencySeries(val windowNs: Long = 250_000_000L) {
  // Maximum latency by window index; Long.MinValue where a window has none.
  // Grown on demand, allocated on the first add.
  private var maxByWindow = Array.emptyLongArray

  def add(completionNs: Long, latencyNs: Long): Unit = {
    val w = completionNs / windowNs
    if (w >= maxByWindow.length) {
      require(w < Int.MaxValue, s"window $w of completion time $completionNs is out of range")
      val old = maxByWindow.length
      maxByWindow = java.util.Arrays.copyOf(maxByWindow, math.max(w.toInt + 1, 2 * old))
      java.util.Arrays.fill(maxByWindow, old, maxByWindow.length, Long.MinValue)
    }
    if (latencyNs > maxByWindow(w.toInt)) maxByWindow(w.toInt) = latencyNs
  }

  /** (windowStartNs, maxLatencyNs) ordered by time. */
  def rows: Seq[(Long, Long)] =
    maxByWindow.indices.filter(maxByWindow(_) != Long.MinValue).map(w => (w * windowNs, maxByWindow(w)))

  /** Maximum latency with completion inside [fromNs, toNs]. */
  def maxIn(fromNs: Long, toNs: Long): Long = {
    val lo = math.max(0L, fromNs / windowNs)
    val hi = math.min(maxByWindow.length - 1L, toNs / windowNs)
    var m  = Long.MinValue
    var w  = lo
    while (w <= hi) { m = math.max(m, maxByWindow(w.toInt)); w += 1 }
    if (m == Long.MinValue) 0L else m
  }
}
