package repro.harness

import org.scalatest.funsuite.AnyFunSuite

class HistogramSpec extends AnyFunSuite {

  test("empty histogram reports zeros") {
    val h = new LatencyHistogram
    assert(h.count == 0.0 && h.max == 0L && h.percentile(0.99) == 0L)
  }

  test("single sample dominates all percentiles") {
    val h = new LatencyHistogram
    h.add(1_000_000L)
    assert(h.max == 1_000_000L)
    assert(h.percentile(0.5) >= 1_000_000L * 15 / 16 && h.percentile(0.5) <= 1_000_000L * 17 / 16)
  }

  test("percentiles are monotone in q") {
    val h = new LatencyHistogram
    (1 to 1000).foreach(i => h.add(i.toLong * 1000))
    val ps = Seq(0.1, 0.5, 0.9, 0.99, 0.9999).map(h.percentile)
    assert(ps == ps.sorted)
  }

  test("percentile brackets the true value within one log-bucket") {
    val h = new LatencyHistogram
    (1 to 10000).foreach(i => h.add(i.toLong))
    val p50 = h.percentile(0.50)
    assert(p50 >= 4500 && p50 <= 5700, s"p50=$p50")
    val p90 = h.percentile(0.90)
    assert(p90 >= 8400 && p90 <= 10000, s"p90=$p90")
  }

  test("max tracks the largest sample exactly") {
    val h = new LatencyHistogram
    h.add(123); h.add(456789); h.add(77)
    assert(h.max == 456789L)
  }

  test("addRange spreads weight across the interval") {
    val h = new LatencyHistogram
    h.addRange(1000, 2000, 100.0)
    assert(math.abs(h.count - 100.0) < 1e-9)
    assert(h.max == 2000L)
    // Mass must lie within the covered buckets: p01 and p99 near interval.
    assert(h.percentile(0.01) >= 1000 * 15 / 16)
    assert(h.percentile(0.999) <= 2200)
  }

  test("addRange with degenerate interval behaves like add") {
    val h = new LatencyHistogram
    h.addRange(5000, 5000, 3.0)
    assert(h.count == 3.0 && h.max == 5000L)
  }

  test("ccdf is nonincreasing and starts at 1") {
    val h = new LatencyHistogram
    (1 to 100).foreach(i => h.add(i.toLong * 97))
    val c = h.ccdf
    assert(c.head._2 == 1.0)
    assert(c.map(_._2) == c.map(_._2).sorted.reverse)
  }

  test("property: percentile(1.0) == max and count conserved (100 random cases)") {
    val rng = new scala.util.Random(1)
    for (_ <- 0 until 100) {
      val xs = Seq.fill(1 + rng.nextInt(200))(1L + rng.nextLong(1_000_000_000L))
      val h  = new LatencyHistogram
      xs.foreach(h.add(_))
      assert(h.count == xs.size.toDouble)
      assert(h.percentile(1.0) == xs.max)
      assert(h.percentile(0.5) <= h.percentile(1.0))
    }
  }

  test("property: addRange conserves weight (100 random cases)") {
    val rng = new scala.util.Random(2)
    for (_ <- 0 until 100) {
      val lo   = 1L + rng.nextLong(1_000_000L)
      val span = rng.nextLong(5_000_000L)
      val w    = 1 + rng.nextInt(1000)
      val h    = new LatencyHistogram
      h.addRange(lo, lo + span, w.toDouble)
      assert(math.abs(h.count - w) < 1e-6)
    }
  }

  test("property: addRange adds each bucket exactly weight * (overlap / span) (100 random cases)") {
    import LatencyHistogram._
    val rng = new scala.util.Random(3)
    for (_ <- 0 until 100) {
      // Ranges from 0 (clamped to 1) up to seconds, so both the irregular
      // buckets below 16 ns and runs of full buckets are crossed.
      val ranges = Seq.fill(1 + rng.nextInt(20)) {
        val lo = if (rng.nextBoolean()) rng.nextLong(20L) else rng.nextLong(1_000_000_000L)
        (lo, lo + rng.nextLong(2_000_000_000L), 1.0 + rng.nextInt(500))
      }
      val h = new LatencyHistogram
      ranges.foreach { case (lo, hi, w) => h.addRange(lo, hi, w) }
      // Reference: one division per bucket, buckets in order.
      val counts = new Array[Double](1024)
      var total  = 0.0
      ranges.foreach { case (lo, hi, w) =>
        val l = math.max(1L, lo)
        val hh = math.max(l, hi)
        total += w
        if (l == hh) counts(bucketOf(l)) += w
        else for (b <- bucketOf(l) to bucketOf(hh)) {
          val overlap = math.min(hh + 1, bucketLow(b + 1)) - math.max(l, bucketLow(b))
          if (overlap > 0) counts(b) += w * (overlap / (hh - l).toDouble)
        }
      }
      var acc = total
      val ccdf = counts.indices.flatMap { b =>
        val row = if (counts(b) > 0) Some((bucketLow(b + 1) - 1, acc / total)) else None
        acc -= counts(b)
        row
      }
      assert(h.count == total && h.ccdf == ccdf)
    }
  }

  test("bucket boundaries are monotone and consistent with bucketOf") {
    import LatencyHistogram._
    var prev = 0L
    for (b <- 0 until 500) {
      val lo = bucketLow(b)
      assert(lo >= prev)
      prev = lo
    }
    // Sub-buckets are exact from value 16 (bucket 64) upward.
    for (b <- 64 until 500)
      assert(bucketOf(bucketLow(b)) == b, s"bucketOf(bucketLow($b))=${bucketOf(bucketLow(b))}")
  }
}

class LatencySeriesSpec extends AnyFunSuite {

  test("windows capture the max per window") {
    val s = new LatencySeries(windowNs = 100L)
    s.add(10, 5); s.add(20, 9); s.add(150, 3)
    assert(s.rows == Seq((0L, 9L), (100L, 3L)))
  }

  test("maxIn covers inclusive window range") {
    val s = new LatencySeries(windowNs = 100L)
    s.add(50, 7); s.add(250, 20)
    assert(s.maxIn(0, 99) == 7L)
    assert(s.maxIn(0, 300) == 20L)
    assert(s.maxIn(100, 199) == 0L)
  }

  test("empty series maxIn is zero") {
    assert(new LatencySeries().maxIn(0, 1_000_000_000L) == 0L)
  }
}
