package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.MigrationExp
import repro.harness.TextTable

/** §5.3 migration micro-benchmarks (Figures 1, 16, 17, 18, 19, 20), each as
  * the table of (strategy, duration, max latency) behind the figure.
  */
class HeadlineBench extends AnyFunSuite {
  private lazy val rows = MigrationExp.headline()

  test("Fig1: print the headline comparison (1e9 keys, 8 GB)") {
    println("\n=== Fig1 headline: all-at-once vs fluid vs optimized, 1e9 keys / 8 GB ===")
    println(MigrationExp.render(rows))
    assert(rows.size == 3)
  }

  test("Fig1: fine-grained strategies beat all-at-once by orders of magnitude") {
    val byStrat = rows.map(r => r.strategy -> r).toMap
    val a = byStrat("all-at-once").maxLatencyNs
    val f = byStrat("fluid").maxLatencyNs
    val o = byStrat("optimized").maxLatencyNs
    assert(a > 20 * f, s"all-at-once $a vs fluid $f: expected >20x")
    assert(a > 10 * o, s"all-at-once $a vs optimized $o: expected >10x")
  }

  test("Fig1: fluid spreads the migration over a longer duration") {
    val byStrat = rows.map(r => r.strategy -> r).toMap
    assert(byStrat("fluid").durationNs > byStrat("all-at-once").durationNs)
  }

  test("Fig1: optimized lasts longer than all-at-once and shorter than fluid") {
    val byStrat = rows.map(r => r.strategy -> r.durationNs).toMap
    val (a, o, f) = (byStrat("all-at-once"), byStrat("optimized"), byStrat("fluid"))
    assert(a < o && o < f, s"durations: all-at-once $a, optimized $o, fluid $f")
  }
}

class MigrationBinsBench extends AnyFunSuite {
  private lazy val rows = MigrationExp.varyBins(totalNs = 60_000_000_000L)

  test("Fig16: print latency/duration vs bin count (4096e6 keys)") {
    println("\n=== Fig16: migration latency vs duration, varying bins 2^4..2^14 ===")
    println(MigrationExp.render(rows))
    assert(rows.size == 18)
  }

  test("Fig16: more bins reduce fluid/batched max latency") {
    def latAt(strategy: String, cfg: String) =
      rows.find(r => r.strategy == strategy && r.config == cfg).get.maxLatencyNs
    assert(latAt("fluid", "bins=2^4") > 4 * latAt("fluid", "bins=2^14"))
    assert(latAt("batched", "bins=2^4") > 4 * latAt("batched", "bins=2^14"))
  }

  test("Fig16: all-at-once latency is roughly bin-count invariant") {
    val a = rows.filter(_.strategy == "all-at-once").map(_.maxLatencyNs)
    assert(a.max.toDouble / a.min < 4.0, s"all-at-once spread ${a.min}..${a.max}")
  }

  test("Fig16: all-at-once has the highest latency once granularity is meaningful") {
    // At 2^4 bins one bin is an eighth of all state, so every strategy
    // degenerates to a near-all-at-once spike (the paper's 2^4 points
    // cluster together too) — assert strict dominance from 2^8 up.
    rows.groupBy(_.config).foreach { case (cfg, g) =>
      val a      = g.find(_.strategy == "all-at-once").get
      val others = g.filterNot(_.strategy == "all-at-once")
      if (cfg == "bins=2^4" || cfg == "bins=2^6")
        others.foreach(o => assert(2 * a.maxLatencyNs >= o.maxLatencyNs, g.toString))
      else
        others.foreach(o => assert(a.maxLatencyNs >= o.maxLatencyNs, g.toString))
    }
  }
}

class MigrationKeysBench extends AnyFunSuite {
  private lazy val rows = MigrationExp.varyKeys(totalNs = 60_000_000_000L)

  test("Fig17: print latency/duration vs domain size (4096 bins)") {
    println("\n=== Fig17: migration latency vs duration, domain 256e6..8192e6 keys ===")
    println(MigrationExp.render(rows))
    assert(rows.size == 18)
  }

  test("Fig17: all-at-once latency and duration grow with the domain") {
    val a = rows.filter(_.strategy == "all-at-once")
    assert(a.last.maxLatencyNs > 8 * a.head.maxLatencyNs)
    assert(a.last.durationNs > a.head.durationNs)
  }

  test("Fig17: per-configuration, all-at-once is highest-latency/lowest-duration, fluid the opposite") {
    rows.groupBy(_.config).values.foreach { g =>
      val a = g.find(_.strategy == "all-at-once").get
      val f = g.find(_.strategy == "fluid").get
      assert(a.maxLatencyNs >= f.maxLatencyNs)
      assert(a.durationNs <= f.durationNs)
    }
  }
}

class MigrationProportionalBench extends AnyFunSuite {
  private lazy val rows = MigrationExp.varyProportional(totalNs = 60_000_000_000L)

  test("Fig18: print latency/duration with fixed 4e6 keys/bin, up to 32e9 keys") {
    println("\n=== Fig18: keys and bins grow together (4e6 keys/bin) ===")
    println(MigrationExp.render(rows))
    assert(rows.size == 15)
  }

  test("Fig18: fluid max latency stays fixed as the domain grows 128x") {
    val f = rows.filter(_.strategy == "fluid")
    assert(f.last.maxLatencyNs < 4 * f.head.maxLatencyNs,
      s"fluid latency should stay bounded: ${f.map(_.maxLatencyNs)}")
  }

  test("Fig18: all-at-once latency grows with the domain; durations grow for all") {
    val a = rows.filter(_.strategy == "all-at-once")
    assert(a.last.maxLatencyNs > 10 * a.head.maxLatencyNs)
    val f = rows.filter(_.strategy == "fluid")
    assert(f.last.durationNs > f.head.durationNs)
  }
}

class ThroughputBench extends AnyFunSuite {
  private lazy val rows = MigrationExp.varyLoad(totalNs = 45_000_000_000L)

  test("Fig19: print offered load vs max latency (16384e6 keys, 4096 bins)") {
    println("\n=== Fig19: offered load vs max migration latency ===")
    println(MigrationExp.render(rows))
    assert(rows.size == 15)
  }

  test("Fig19: latency is throughput-invariant up to 16e6 rec/s") {
    val f = rows.filter(r => r.strategy == "fluid" && r.config != "rate=32000e3")
    assert(f.map(_.maxLatencyNs).max < 10 * f.map(_.maxLatencyNs).min,
      s"sub-saturation fluid latencies should be rate-invariant: ${f.map(_.maxLatencyNs)}")
  }

  test("Fig19: 32e6 rec/s saturates the system (steady-state latency explodes)") {
    val sat   = rows.filter(_.config == "rate=32000e3").map(_.steadyMaxNs).max
    val unsat = rows.filter(_.config == "rate=4000e3").map(_.steadyMaxNs).max
    assert(sat > 20 * unsat, s"saturated $sat vs unsaturated $unsat")
  }

  test("Fig19: below saturation, all-at-once remains 10-100x worse than fluid") {
    rows.groupBy(_.config).filterNot(_._1 == "rate=32000e3").values.foreach { g =>
      val a = g.find(_.strategy == "all-at-once").get.maxLatencyNs
      val f = g.find(_.strategy == "fluid").get.maxLatencyNs
      assert(a > 10 * f, s"${g.head.config}: all-at-once $a vs fluid $f")
    }
  }
}

class MemoryBench extends AnyFunSuite {
  private lazy val series = MigrationExp.memory(totalNs = 60_000_000_000L)

  test("Fig20: print per-process memory over time per strategy (16e9 keys)") {
    println("\n=== Fig20: per-process memory (state + in-flight serialized bytes) ===")
    series.foreach { case (name, samples) =>
      val steady = samples.map(s => s._2 + s._3).min
      val peak   = samples.map(s => s._2 + s._3).max
      println(s"$name: steady=${TextTable.gib(steady)} GiB peak=${TextTable.gib(peak)} GiB " +
        s"peak-inflight=${TextTable.gib(samples.map(_._3).max)} GiB over ${samples.size} samples")
    }
    assert(series.size == 3)
  }

  test("Fig20: all-at-once shows a large in-flight spike; fluid and batched stay flat") {
    val byName = series.toMap
    val aPeak  = byName("all-at-once").map(_._3).max
    val fPeak  = byName("fluid").map(_._3).max
    val bPeak  = byName("batched").map(_._3).max
    assert(aPeak > 5 * math.max(1L, fPeak), s"all-at-once $aPeak vs fluid $fPeak")
    assert(aPeak > 5 * math.max(1L, bPeak), s"all-at-once $aPeak vs batched $bPeak")
  }

  test("Fig20: steady state memory reflects the modeled 16e9-key state") {
    val samples = series.head._2
    // Process 0 = 4 of 16 workers ≈ a quarter of 128 GB.
    val steadyGiB = samples.map(_._2).max / (1024.0 * 1024 * 1024)
    assert(steadyGiB > 20 && steadyGiB < 40, s"steady ≈ $steadyGiB GiB")
  }
}
