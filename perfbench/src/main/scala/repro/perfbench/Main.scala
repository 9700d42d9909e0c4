package repro.perfbench

import java.nio.file.Paths
import scala.collection.mutable

/** Benchmark entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * A cold set-up precedes an untimed warm-up pass; timed passes then run
  * until the next one would overrun `--seconds`. Set-up is repeated after
  * every untraced pass and reported as a median.
  * With `--trace 1` half of the time runs untraced and half under a JFR
  * recording, and the per-layer numbers are printed instead of the
  * end-to-end ones. The last line of standard output is the JSON result.
  */
object Main {
  private val Mib = 1024.0 * 1024.0

  /** Simulated input horizons of the two simulator workloads. */
  val CountHorizonNs = 6_000_000_000L
  val NexmarkHorizonNs = 4_000_000_000L

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s"      -> "s",
    "wall_s"       -> "s",
    "step_ms"      -> "ms",
    "mig_step_ms"  -> "ms",
  )

  val PerLayer: Seq[(String, String)] =
    Trace.Layers.flatMap(l => Seq(s"$l.self_ms" -> "ms", s"$l.alloc_mb" -> "MB")) ++ Seq(
      "trace_overhead_frac" -> "ratio",
      "failed_frac"         -> "ratio",
      "sim_s_per_s"         -> "s/s",
      "jvm.alloc_mb"        -> "MB",
      "jvm.heap_peak_mb"    -> "MB",
      "jvm.gc_ms"           -> "ms",
      "jvm.gc_count"        -> "count",
      "count.steady_max_ms" -> "ms",
    ) ++ CountMigrate.Strategies.flatMap(_._2).flatMap { s =>
      Seq(s"count.${s.name}.mig_max_ms" -> "ms", s"count.${s.name}.mig_s" -> "s", s"count.${s.name}.peak_inflight_mb" -> "MB")
    } ++ Seq("nexmark.gen_ms" -> "ms", "nexmark.send_ms" -> "ms") ++ Nexmark.Queries.flatMap { q =>
      Seq(s"nexmark.q$q.steady_max_ms" -> "ms", s"nexmark.q$q.mig_max_ms" -> "ms", s"nexmark.q$q.mig_s" -> "s",
        s"nexmark.q$q.outputs" -> "count", s"nexmark.q$q.mig_ratio" -> "ratio")
    } ++ Seq(
      "sparkmega.migrate_ms"       -> "ms",
      "sparkmega.moved_rows"       -> "rows",
      "sparkmega.fold_ms"          -> "ms",
      "sparkmega.checkpoint_ms"    -> "ms",
      "sparkmega.shuffle_write_mb" -> "MB",
      "sparkmega.jobs_per_batch"   -> "jobs/batch",
      "sparkmega.tasks_per_batch"  -> "tasks/batch",
      "sparkmega.state_rows"       -> "rows",
      "sparkmega.partition_skew"   -> "ratio",
    )

  private final case class Timed(pass: Pass, heapPeakBytes: Long, gcCount: Long, gcMs: Long)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def usage(msg: String): Nothing = {
      Console.err.println(s"$msg\nusage: --workload count-migrate|nexmark|spark-microbatch --seed N --seconds S --trace 0|1")
      sys.exit(2)
    }
    val name    = opts.getOrElse("workload", usage("missing --workload"))
    val seed    = opts.get("seed").flatMap(_.toLongOption).getOrElse(usage("missing or bad --seed"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(usage("missing or bad --seconds"))
    val trace   = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"bad --trace $t")
    }
    val w: Workload = name match {
      case "count-migrate"    => new CountMigrate(seed, CountHorizonNs)
      case "nexmark"          => new Nexmark(seed, NexmarkHorizonNs)
      case "spark-microbatch" => new SparkMicrobatch(seed)
      case other              => usage(s"unknown workload $other")
    }
    val line =
      try run(name, seed, seconds, trace, w)
      finally w.close()
    println(line)
  }

  private def run(name: String, seed: Long, seconds: Double, trace: Boolean, w: Workload): String = {
    // The first, cold set-up (which starts Spark) is left out of the median;
    // the repetitions are spread over the run, after every untraced pass, so
    // that they meet the same host speeds as the passes, and each group
    // starts from a collected heap. (Set-ups right after the warm-up pass
    // run slower than after a timed pass.)
    val coldNs  = w.setup()
    val setupNs = mutable.ArrayBuffer.empty[Long]
    def repeatSetup(): Unit = {
      System.gc()
      setupNs ++= Seq.fill(w.setupReps)(w.setup())
    }
    val t0      = System.nanoTime()
    // In a traced run the warm-up pass also absorbs the recorder's start-up.
    val warmRec = if (trace) Some(new Trace.Session(Paths.get(".bench_build", s"warmup-$name-$seed.jfr"), false)) else None
    val warm    = w.warmup()
    warmRec.foreach(_.finish(Nil))
    println(f"warm-up pass: ${(System.nanoTime() - t0) / 1e9}%.3f s host")
    Seq.fill(w.setupWarmupReps)(w.setup())

    val budgetNs = (seconds * 1e9).toLong
    // A traced run needs only a baseline for the tracing overhead.
    val untraced = passes(w, if (trace) budgetNs / 2 else budgetNs, traced = false, first = 0,
      minPasses = if (trace) 1 else w.minPasses, afterEach = () => repeatSetup())
    def profiled(allocation: Boolean, budget: Long, first: Int): (Seq[Timed], Trace.Profile) = {
      val session = new Trace.Session(Paths.get(".bench_build", s"trace-$name-$seed.jfr"), allocation)
      val ps      = passes(w, budget, traced = true, first, minPasses = 1, afterEach = () => ())
      (ps, session.finish(ps.flatMap(_.pass.windows)))
    }
    // Execution samples over half the time, then one allocation-sampled pass.
    val (traced, exec, allocPass, alloc) =
      if (!trace) (Nil, None, Nil, None)
      else {
        val (ps, ep) = profiled(allocation = false, budgetNs / 2, untraced.size)
        val (as, ap) = profiled(allocation = true, 0L, untraced.size + ps.size)
        (ps, Some(ep), as, Some(ap))
      }
    val all = untraced ++ traced ++ allocPass

    // Every pass must reproduce the first pass's digest; passes after the
    // first may leave costly output checks to it.
    val checks = mutable.ArrayBuffer.empty[(String, Boolean)]
    val first  = if (warm.digest.nonEmpty) warm else untraced.head.pass
    (warm +: all.map(_.pass)).foreach { p =>
      checks ++= p.checks
      if (p.digest.nonEmpty && (p ne first))
        Check(checks, "digest repeats across passes", p.digest == first.digest, s"${p.digest} vs ${first.digest}")
    }
    val failed = checks.count(!_._2)

    def med(xs: Seq[Double])     = if (xs.isEmpty) 0.0 else Stats.median(xs)
    def fastest(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else xs.min
    val wallS   = untraced.map(_.pass.wallNs / 1e9)
    val steps   = untraced.flatMap(_.pass.steps)
    val steady  = steps.filterNot(_.migrating).map(_.ms)
    val migs    = steps.filter(_.migrating).map(_.ms)
    val setupS  = setupNs.map(_ / 1e9).toSeq
    // Every pass has the same mix of steps, whose costs differ (NEXMark's
    // first migration falls while Q5's window fills, its second after), so a
    // pass's mean step varies less between runs than a median over steps.
    def passMeans(migrating: Boolean) = untraced.flatMap { t =>
      val ms = t.pass.steps.filter(_.migrating == migrating).map(_.ms)
      if (ms.isEmpty) None else Some(ms.sum / ms.size)
    }

    println(s"workload=$name seed=$seed seconds=$seconds trace=${if (trace) 1 else 0} " +
      s"passes=${untraced.size} traced_passes=${traced.size}")
    println(s"digest $name seed=$seed ${first.digest}")
    println(s"failed_frac $failed/${checks.size}")
    println(f"setup_s      ${Stats.describe(setupS)}; cold ${coldNs / 1e9}%.4f")
    println(f"wall_s       ${Stats.describe(wallS)} fastest=${wallS.min}%.4f")
    println(s"step_ms      ${Stats.describe(steady)}; pass means ${Stats.describe(passMeans(false))}")
    println(s"mig_step_ms  ${Stats.describe(migs)}; pass means ${Stats.describe(passMeans(true))}")

    val metrics: Seq[(String, String, Double)] =
      if (!trace) {
        val values = Map(
          "setup_s"      -> med(setupS),
          // The host's speed swings by up to 2x within seconds; the fastest
          // pass of identical work varies least from run to run.
          "wall_s"       -> fastest(wallS),
          "step_ms"      -> fastest(passMeans(false)),
          "mig_step_ms"  -> fastest(passMeans(true)),
        )
        EndToEnd.map { case (n, u) => (n, u, values(n)) }
      } else {
        val prof        = exec.get
        val tracedWall  = traced.map(_.pass.wallNs).sum / 1e6 / traced.size
        // JFR allocation weights are estimates; scale them so that the calling
        // thread's weight sampled in the timed spans matches its exactly
        // counted allocation there.
        val allocScale  = alloc.filter(_.callerWeight > 0).map(allocPass.map(_.pass.allocBytes).sum.toDouble / _.callerWeight)
        val layerValues = mutable.Map.empty[String, Double]
        all.flatMap(_.pass.layer.keys).distinct.foreach { k =>
          layerValues(k) = med(all.flatMap(_.pass.layer.get(k)))
        }
        Trace.Layers.foreach { l =>
          val share = if (prof.totalSamples == 0) 0.0 else prof.samples.getOrElse(l, 0L).toDouble / prof.totalSamples
          layerValues(s"$l.self_ms") = share * tracedWall
          layerValues(s"$l.alloc_mb") = alloc.get.allocWeight.getOrElse(l, 0L) * allocScale.getOrElse(0.0) / Mib / allocPass.size
        }
        layerValues("trace_overhead_frac") = med(traced.map(_.pass.wallNs.toDouble)) / med(untraced.map(_.pass.wallNs.toDouble)) - 1
        layerValues("failed_frac") = failed.toDouble / checks.size
        layerValues("sim_s_per_s") = med(untraced.map(t => t.pass.simNs.toDouble / t.pass.wallNs))
        layerValues("jvm.alloc_mb") = med(untraced.map(_.pass.allocBytes / Mib))
        layerValues("jvm.heap_peak_mb") = med(untraced.map(_.heapPeakBytes / Mib))
        layerValues("jvm.gc_ms") = med(untraced.map(_.gcMs.toDouble))
        layerValues("jvm.gc_count") = med(untraced.map(_.gcCount.toDouble))
        println(s"profile: ${prof.totalSamples} execution samples over ${traced.size} traced passes; " +
          f"allocation weights scaled by ${allocScale.getOrElse(0.0)}%.3f over ${allocPass.size} pass")
        PerLayer.map { case (n, u) => (n, u, layerValues.getOrElse(n, 0.0)) }
      }
    metrics.foreach { case (n, u, v) => println(f"$n%-34s $v%.4f $u") }

    Json.obj(Seq(
      "correct"   -> (if (failed == 0) "true" else "false"),
      "attempted" -> checks.size.toString,
      "failed"    -> failed.toString,
      "metrics"   -> Json.obj(metrics.map { case (n, u, v) =>
        n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }),
    ))
  }

  /** A run starts no pass that would end later than this after JVM start. */
  private val DeadlineNs = 140_000_000_000L

  /** Timed passes until the next one (estimated by the last) would overrun
    * the budget or the run's deadline.
    */
  private def passes(w: Workload, budgetNs: Long, traced: Boolean, first: Int, minPasses: Int,
      afterEach: () => Unit): Seq[Timed] = {
    val out   = mutable.ArrayBuffer.empty[Timed]
    val start = System.nanoTime()
    var last  = 0L
    def uptimeNs = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime * 1_000_000L
    def more = System.nanoTime() - start + last <= budgetNs && uptimeNs + last <= DeadlineNs
    while (out.size < minPasses || more) {
      System.gc() // every pass starts from the same, collected heap
      Jvm.resetHeapPeak()
      val gc0 = Jvm.gcCount; val gcMs0 = Jvm.gcMillis
      val p0  = System.nanoTime()
      val p   = w.pass(first + out.size, traced)
      last = System.nanoTime() - p0
      println(f"pass ${first + out.size}: ${p.wallNs / 1e9}%.3f s timed, ${last / 1e9}%.3f s with checks")
      out += Timed(p, Jvm.heapPeakBytes, Jvm.gcCount - gc0, Jvm.gcMillis - gcMs0)
      afterEach()
      last = System.nanoTime() - p0
    }
    out.toSeq
  }
}
