package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.timely.Sim
import scala.collection.mutable

/** Record-level test rig: a migrating word-count (§3.5's example) driven by a
  * deterministic input, with hooks recording every output and application.
  */
object WordCountRig {

  final class SumLogic extends BinLogic[Long, Long, (Long, Long)] {
    type St = Long
    def init(key: Long): Long = 0L
    def fold(t: Long, rec: Rec[Long, Long], st: Long, out: ((Long, Long)) => Unit, notify: (Long, Rec[Long, Long]) => Unit): Long = {
      val st2 = st + rec.value
      out((rec.key, st2))
      st2
    }
  }

  /** An echoing logic: every input additionally schedules a post-dated copy
    * of itself one epoch later (exercises the extended notificator and the
    * migration of pending records).
    */
  final class EchoLogic(epochNs: Long, horizonNs: Long) extends BinLogic[Long, Long, (Long, Long)] {
    type St = Long
    def init(key: Long): Long = 0L
    def fold(t: Long, rec: Rec[Long, Long], st: Long, out: ((Long, Long)) => Unit, notify: (Long, Rec[Long, Long]) => Unit): Long = {
      val st2 = st + rec.value
      out((rec.key, st2))
      if (rec.value > 0 && t + epochNs < horizonNs) notify(t + epochNs, rec.copy(value = 0L))
      st2
    }
  }

  final case class RunOut(
      outputs: Seq[(Long, Long, Long)],                 // (time, key, cumulative)
      applications: Seq[(Long, Long, Int)],             // (time, key, worker)
      migrations: Seq[(Long, Int, Int, Int)],           // (time, bin, from, to)
      finalState: Map[Long, Long],
      routeOf: (Long, Int) => Int,
  )

  /** Drive `epochs` of deterministic input through a fresh engine; optionally
    * migrate `moves` (by default [[Moves.imbalance]]) per `strategy` at epoch
    * `migrateAtEpoch`. The control capability runs `controlLeadNs` ahead of
    * the data's, so that the migration's updates are dated that far into the
    * future.
    */
  def drive(
      workers: Int,
      bins: Int,
      epochs: Int,
      keys: Int,
      strategy: Option[Strategy],
      migrateAtEpoch: Int = 4,
      echo: Boolean = false,
      seed: Long = 7L,
      moves: Seq[(Int, Int)] = null,
      controlLeadNs: Long = 0L,
  ): RunOut = {
    val sim     = new Sim
    val epochNs = 1_000_000L
    val horizon = epochs.toLong * epochNs
    val outputs = mutable.ArrayBuffer.empty[(Long, Long, Long)]
    val applied = mutable.ArrayBuffer.empty[(Long, Long, Int)]

    val logic: BinLogic[Long, Long, (Long, Long)] =
      if (echo) new EchoLogic(epochNs, horizon) else new SumLogic

    val engine = new MegaphoneEngine[Long, Long, (Long, Long)](
      sim,
      workers,
      bins,
      CostModel.keyCount.copy(hiccupEveryNs = 0), // no noise: exact determinism
      logic,
      binOf = k => (k % bins).toInt,
      onOutput = (t, o) => outputs += ((t, o._1, o._2)),
    )
    engine.onApply = (t, k, w) => applied += ((t, k, w))
    engine.initBins()

    val rng = new scala.util.Random(seed)
    def inject(e: Int): Unit = {
      val t = e.toLong * epochNs
      if (e >= epochs) { engine.dataInput.close(); return }
      (0 until workers).foreach { w =>
        val recs = Seq.fill(3)(Rec[Long, Long](rng.nextInt(keys).toLong, rng.nextInt(10).toLong + 1))
        engine.dataInput.send(w, t, recs)
      }
      engine.dataInput.advanceTo(t + epochNs)
      if (strategy.nonEmpty) engine.controlInput.advanceTo(t + epochNs + controlLeadNs)
      sim.at(t + epochNs)(inject(e + 1))
    }
    sim.at(0L)(inject(0))

    val controller = new MigrationController(engine)
    strategy match {
      case None => engine.controlInput.close()
      case Some(s) =>
        val ms = if (moves == null) Moves.imbalance(bins, workers) else moves
        controller.migrate(migrateAtEpoch.toLong * epochNs, s, ms) { (_, _) =>
          engine.controlInput.close()
        }
    }

    sim.run()
    require(engine.probe.frontier == Long.MaxValue, "liveness: output frontier must drain")

    val state = (0 until workers)
      .flatMap(w => engine.sOps(w).ownedBins.flatMap(_.states.iterator))
      .map { case (k, s) => (k, s.asInstanceOf[Long]) }
      .toMap
    RunOut(outputs.toSeq, applied.toSeq, engine.migrationLog.toSeq.map(m => (m.time, m.bin, m.from, m.to)),
      state, engine.route)
  }
}

class EngineSpec extends AnyFunSuite {
  import WordCountRig._

  private val W = 4
  private val B = 16

  private def refRun = drive(W, B, epochs = 12, keys = 40, strategy = None)

  test("Correctness (Property 1): outputs are timestamp-ordered cumulative sums per key") {
    val r = refRun
    r.outputs.groupBy(_._2).foreach { case (_, outs) =>
      val sorted = outs.sortBy(o => (o._1, o._3))
      assert(sorted.map(_._3) == sorted.map(_._3).sorted, "cumulative counts must be nondecreasing")
      // outputs arrive already in application order within each key
      assert(outs.map(_._1).sorted == outs.map(_._1), "emission follows timestamp order per key")
    }
  }

  test("final state equals the input aggregation without migration") {
    val r = refRun
    val expected = r.outputs.groupBy(_._2).map { case (k, outs) => (k, outs.map(_._3).max) }
    assert(r.finalState == expected)
  }

  test("Completion (Property 3): frontier drains with no migration") {
    refRun // require() inside run checks the output frontier drains
  }

  for (s <- Seq[Strategy](AllAtOnce, Fluid(), Batched(2), Batched(4, gapNs = 500_000L))) {
    test(s"migration under ${s.name}/${s.getClass.getSimpleName} preserves outputs and state") {
      val base = refRun
      val mig  = drive(W, B, epochs = 12, keys = 40, strategy = Some(s))
      assert(mig.migrations.nonEmpty, "the schedule must actually move bins")
      assert(mig.finalState == base.finalState, "state must survive migration intact")
      // Outputs per key must match up to reordering of records sharing one
      // logical timestamp (the §3.2 model fixes only timestamp order): per
      // (key, time), the output count and end-of-timestamp cumulative agree.
      def byKey(o: Seq[(Long, Long, Long)]) =
        o.groupBy(x => (x._2, x._1)).view.mapValues(os => (os.size, os.map(_._3).max)).toMap
      assert(byKey(mig.outputs) == byKey(base.outputs))
    }

    test(s"Migration (Property 2) holds under ${s.name}/${s.getClass.getSimpleName}") {
      val mig = drive(W, B, epochs = 12, keys = 40, strategy = Some(s))
      mig.applications.foreach { case (t, k, w) =>
        assert(mig.routeOf(t, (k % B).toInt) == w,
          s"update to key $k at time $t applied at worker $w, configuration says ${mig.routeOf(t, (k % B).toInt)}")
      }
    }
  }

  test("migrations move exactly the scheduled bins") {
    val mig   = drive(W, B, epochs = 12, keys = 40, strategy = Some(AllAtOnce))
    val moved = Moves.imbalance(B, W).toMap
    assert(mig.migrations.map(m => (m._2, m._4)).toMap == moved)
    mig.migrations.foreach { case (_, bin, from, to) => assert(from == bin % W && to == moved(bin)) }
  }

  test("all-at-once uses one common migration time; fluid uses distinct times") {
    val a = drive(W, B, epochs = 12, keys = 40, strategy = Some(AllAtOnce))
    assert(a.migrations.map(_._1).distinct.size == 1)
    val f = drive(W, B, epochs = 12, keys = 40, strategy = Some(Fluid()))
    assert(f.migrations.map(_._1).distinct.size == f.migrations.size)
  }

  test("post-dated records (notificator) survive migration") {
    val base = drive(W, B, epochs = 12, keys = 20, strategy = None, echo = true)
    for (s <- Seq[Strategy](AllAtOnce, Fluid(), Batched(3))) {
      val mig = drive(W, B, epochs = 12, keys = 20, strategy = Some(s), echo = true)
      assert(mig.finalState == base.finalState, s"echoed state diverged under ${s.name}")
      assert(mig.outputs.size == base.outputs.size, s"echo outputs lost under ${s.name}")
    }
  }

  test("post-dated records are applied at the configuration's worker too") {
    val mig = drive(W, B, epochs = 12, keys = 20, strategy = Some(AllAtOnce), echo = true)
    mig.applications.foreach { case (t, k, w) =>
      assert(mig.routeOf(t, (k % B).toInt) == w)
    }
  }

  test("post-dated records of several bins due at one time apply after its input, in posting order") {
    // One worker, so every record of a time applies in one batch: the
    // epoch's input, then the echoes posted by the previous epoch's input.
    val r    = drive(1, B, epochs = 12, keys = 20, strategy = None, echo = true)
    val last = mutable.HashMap.empty[Long, Long]
    // (time, key, is an echo): an echo (value 0) leaves its key's sum as it was.
    val applied = r.outputs.map { case (t, k, sum) => val echo = last.get(k).contains(sum); last(k) = sum; (t, k, echo) }
    val perTime = applied.groupBy(_._1).toSeq.sortBy(_._1).map(_._2)
    perTime.foreach(os => assert(os.map(_._3) == os.map(_._3).sorted, s"echoes before input at ${os.head._1}"))
    val inputs = perTime.map(_.filterNot(_._3).map(_._2))
    val echoes = perTime.map(_.filter(_._3).map(_._2))
    assert(inputs.init.exists(ks => ks.map(_ % B) != ks.map(_ % B).sorted), "some epoch's input is not in bin order")
    assert(echoes.head.isEmpty && echoes.tail == inputs.init, "echoes apply in the order they were posted")
  }

  test("migration back and forth restores the initial assignment") {
    val sim = new Sim
    val engine = new MegaphoneEngine[Long, Long, (Long, Long)](
      sim, W, B, CostModel.keyCount.copy(hiccupEveryNs = 0), new SumLogic, k => (k % B).toInt)
    engine.initBins()
    val controller = new MigrationController(engine)
    sim.at(0) {
      engine.dataInput.send(0, 0, Seq(Rec(1L, 1L)))
      // Advance the data capability well past the migration times so the
      // probe can pass them while the input stays open.
      engine.dataInput.advanceTo(10_000_000L)
    }
    controller.migrate(1_000_000L, AllAtOnce, Moves.imbalance(B, W)) { (_, _) =>
      controller.migrate(sim.now + 1, AllAtOnce, Moves.rebalance(B, W)) { (_, _) =>
        engine.controlInput.close()
        engine.dataInput.close()
      }
    }
    sim.run()
    (0 until B).foreach(b => assert(engine.currentOwner(b) == b % W))
    (0 until B).foreach(b => assert(engine.sOps(b % W).bins(b) != null))
  }

  test("determinism: identical runs produce identical outputs") {
    val a = drive(W, B, epochs = 10, keys = 30, strategy = Some(Batched(2)))
    val b = drive(W, B, epochs = 10, keys = 30, strategy = Some(Batched(2)))
    assert(a.outputs == b.outputs && a.migrations == b.migrations)
  }

  test("records in advance of the control frontier are buffered, then flushed") {
    val sim = new Sim
    val engine = new MegaphoneEngine[Long, Long, (Long, Long)](
      sim, 2, 4, CostModel.keyCount.copy(hiccupEveryNs = 0), new SumLogic, k => (k % 4).toInt)
    engine.initBins()
    // Control frontier stays at 0: records at t=5ms must buffer in F.
    sim.at(0) {
      engine.dataInput.send(0, 5_000_000L, Seq(Rec(0L, 1L)))
      engine.dataInput.advanceTo(6_000_000L)
    }
    sim.run(until = 20_000_000L)
    assert(engine.fOps(0).buffered.size() == 1, "record must wait for the control frontier")
    assert(engine.sOps(0).bins(0).states.isEmpty)
    engine.controlInput.close()
    engine.dataInput.close()
    sim.run()
    assert(engine.sOps(0).bins(0).states.get(0L).contains(1L), "record flushed after control advanced")
  }

  for ((label, t) <- Seq("behind" -> 0L, "ahead of" -> 5_000_000L)) {
    test(s"an empty send at a time $label the control frontier is a no-op") {
      val sim = new Sim
      val engine = new MegaphoneEngine[Long, Long, (Long, Long)](
        sim, 2, 4, CostModel.keyCount.copy(hiccupEveryNs = 0), new SumLogic, k => (k % 4).toInt)
      engine.initBins()
      // The control frontier is 1 ms: a send at 5 ms would buffer in F.
      engine.controlInput.advanceTo(1_000_000L)
      sim.at(0) {
        engine.dataInput.send(0, t, Nil)
        engine.dataInput.send(1, t, Seq(Rec(1L, 2L)))
        engine.dataInput.send(1, t, Nil)
        engine.dataInput.advanceTo(t + 1_000_000L)
      }
      sim.run(until = 20_000_000L)
      assert(engine.fOps.forall(_.buffered.isEmpty) == (t == 0L))
      engine.controlInput.close()
      engine.dataInput.close()
      sim.run()
      assert(engine.probe.frontier == Long.MaxValue && engine.main.frontier == Long.MaxValue)
      assert(engine.sOps(1).bins(1).states.get(1L).contains(2L))
    }
  }

  test("utilization accounting: workers are busy when records flow") {
    val sim = new Sim
    val engine = new MegaphoneEngine[Long, Long, (Long, Long)](
      sim, 2, 4, CostModel.keyCount.copy(hiccupEveryNs = 0), new SumLogic, k => (k % 4).toInt)
    engine.initBins()
    sim.at(0) {
      engine.dataInput.send(0, 0L, Seq(Rec(0L, 1L), Rec(1L, 1L)))
      engine.dataInput.advanceTo(1_000_000L)
      engine.dataInput.close()
    }
    engine.controlInput.close()
    sim.run()
    assert(engine.workers.map(_.busyNs).sum > 0)
  }

  test("a backdated configuration update for a bin fails loudly") {
    val sim = new Sim
    val engine = new MegaphoneEngine[Long, Long, (Long, Long)](
      sim, 2, 4, CostModel.keyCount.copy(hiccupEveryNs = 0), new SumLogic, k => (k % 4).toInt)
    engine.initBins()
    engine.controlInput.send(5_000_000L, Seq((0, 1)))
    engine.controlInput.send(2_000_000L, Seq((2, 1))) // each bin's times are its own
    val e = intercept[IllegalArgumentException](engine.controlInput.send(3_000_000L, Seq((0, 0))))
    assert(e.getMessage.contains("bin 0") && e.getMessage.contains("3000000"), e.getMessage)
    assert(engine.currentOwner(0) == 1 && engine.route(5_000_000L, 0) == 1 && engine.route(3_000_000L, 0) == 0,
      "the rejected update leaves the configuration unchanged")
  }

  test("a bin named twice in one control send takes its last update") {
    val sim = new Sim
    val engine = new MegaphoneEngine[Long, Long, (Long, Long)](
      sim, 2, 4, CostModel.keyCount.copy(hiccupEveryNs = 0), new SumLogic, k => (k % 4).toInt)
    engine.initBins()
    // Bin 0 moves to worker 1 and back (no migration); bin 1 moves to worker 0.
    engine.controlInput.send(1_000_000L, Seq((0, 1), (1, 0), (0, 0)))
    assert(engine.migrationLog.map(m => (m.time, m.bin, m.from, m.to)).toSeq == Seq((1_000_000L, 1, 1, 0)))
    val e = intercept[IllegalArgumentException](engine.controlInput.send(1_000_000L, Seq((1, 1))))
    assert(e.getMessage.contains("bin 1"), e.getMessage)
    engine.controlInput.close()
    engine.dataInput.close()
    sim.run()
    assert(engine.currentOwner(0) == 0 && engine.sOps(0).bins(0) != null)
    assert(engine.sOps(0).bins(1) != null && engine.sOps(1).bins(1) == null)
  }

  test("a record delivered to a worker that does not own its bin fails loudly") {
    val sim = new Sim
    val engine = new MegaphoneEngine[Long, Long, (Long, Long)](
      sim, 2, 4, CostModel.keyCount.copy(hiccupEveryNs = 0), new SumLogic, k => (k % 4).toInt)
    engine.initBins()
    sim.at(0) {
      // Bin 0 lives at worker 0; deliver its record to worker 1 as if routed there.
      engine.main.hold(0L); engine.probe.hold(0L)
      engine.sOps(1).receive(new engine.Msg(0L, Array(Rec(0L, 1L)), 1L, 1))
      engine.dataInput.close()
    }
    engine.controlInput.close()
    val e = intercept[IllegalStateException](sim.run())
    assert(e.getMessage.contains("time 0") && e.getMessage.contains("key 0") &&
      e.getMessage.contains("bin 0") && e.getMessage.contains("worker 1"), e.getMessage)
    assert(engine.sOps(1).bins(0) == null, "no bin is created at a non-owner")
  }
}
