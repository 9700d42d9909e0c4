package repro.timely

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Random schedules for [[Sim]] (its heap, worker and NIC lanes, and each
  * NIC's in-flight bytes) and random pointstamp traffic for [[Tracker]],
  * each checked against a plain reference model.
  */
class PropertySpec extends AnyFunSuite {
  import PropertySpec._

  private def check(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), p)
    assert(r.passed, Pretty.pretty(r))
  }

  test("Sim runs random nested and past-clamped schedules in (max(t, now), insertion) order") {
    // Each schedule mixes `at`, worker execs and local and remote sends.
    check(Prop.forAll(genSchedule) { case (before, after, until) =>
      val sim     = new Sim
      val workers = Array.tabulate(Workers)(new SimWorker(_, sim))
      val net     = new Net(sim, BytesPerNs, LatencyNs)
      val log     = mutable.ArrayBuffer.empty[(Int, Long)]
      val sent    = new Array[Long](Workers) // remote bytes sent minus delivered, by source
      var clockOk = true
      def ran(o: Op, at: Long): Unit = {
        o match { case Send(_, src, dst, by, _) if src != dst => sent(src) -= by; case _ => () }
        clockOk &&= at == sim.now && (0 until Workers).forall(s => net.inFlightBySrc(s) == sent(s))
        log += ((o.id, at))
        o.kids.foreach(schedule)
      }
      def schedule(o: Op): Unit = o match {
        case At(_, t, _)         => sim.at(t)(ran(o, sim.now))
        case Exec(_, w, cost, _) => workers(w).exec(cost)(ran(o, _))
        case Send(_, src, dst, by, _) =>
          if (src != dst) sent(src) += by
          net.send(src, dst, by)(ran(o, _))
      }
      before.foreach(schedule)
      sim.run(until)
      after.foreach(schedule)
      sim.run()
      clockOk && log.toSeq == reference(before, after, until) && sim.idle && net.inFlightBytes == 0L
    })
  }

  test("a lane rejects a time before its last one") {
    val sim  = new Sim
    val lane = new Lane(sim)
    lane.push(10L, _ => ())
    lane.push(10L, _ => ())
    val e = intercept[IllegalArgumentException](lane.push(9L, _ => ()))
    assert(e.getMessage.contains("lane time 9"), e.getMessage)
    sim.run()
    assert(sim.executed == 2L && sim.idle)
  }

  test("EventHeap pops monotone runs, out-of-order pushes and equal keys in (time, seq) order") {
    check(Prop.forAll(Gen.listOf(genHeapStep)) { steps =>
      val heap = new EventHeap[java.lang.Integer]
      val ref  = mutable.ArrayBuffer.empty[(Long, Long, Int)]
      var last = (0L, 0L)
      var id   = 0
      var ok   = true
      def push(t: Long, s: Long): Unit = { heap.push(t, s, id); ref += ((t, s, id)); id += 1 }
      def pop(): Unit = {
        val key  = ref.map(x => (x._1, x._2)).min
        val item = heap.minItem.intValue
        ok &&= (heap.minTime, heap.minSeq) == key && ref.contains((key._1, key._2, item))
        ref -= ((key._1, key._2, item))
        heap.removeMin()
      }
      steps.foreach {
        case Monotone(deltas) => deltas.foreach { d => last = (last._1 + d, last._2 + 1); push(last._1, last._2) }
        case Single(t, s)     => push(t, s)
        case Repeat(pick)     => if (ref.isEmpty) push(last._1, last._2) else { val (t, s, _) = ref(pick % ref.size); push(t, s) }
        case Pop(k)           => (0 until math.min(k, ref.size)).foreach(_ => pop())
      }
      ok &&= heap.size == ref.size
      while (ref.nonEmpty) pop()
      ok && heap.isEmpty && heap.minTime == Long.MaxValue
    })
  }

  test("TrackerCounts matches a reference map through growth, removals in random order and wrap-around") {
    // Thousands of distinct times per case: a third epoch-aligned, and a
    // third homed in the last sixteenth of the table at every capacity. Those
    // outnumber its slots, so their probe run crosses the table end.
    val genCase = for {
      distinct <- Gen.choose(1, 3000)
      seed     <- Gen.long
    } yield (distinct, seed)
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(40), Prop.forAll(genCase) { case (distinct, seed) =>
      val rng   = new scala.util.Random(seed)
      val table = new TrackerCounts
      val atEnd = Iterator.continually(rng.nextLong()).filter(table.home(_) == table.capacity - 1)
      val times = Array.tabulate(distinct) { i =>
        if (i % 3 == 0) rng.nextInt(5000) * 1_000_000L else if (i % 3 == 1) atEnd.next() else rng.nextLong()
      }
      val ref   = mutable.HashMap.empty[Long, Long]
      var nearEnd = 0
      var ok    = true
      (0 until 6 * distinct).foreach { _ =>
        val t = times(rng.nextInt(distinct))
        rng.nextInt(4) match {
          case 0 | 1 =>
            val n = 1L + rng.nextInt(3)
            ok &&= table.add(t, n) == !ref.contains(t)
            ref(t) = ref.getOrElse(t, 0L) + n
          case 2 =>
            val n    = 1L + rng.nextInt(3)
            val c    = ref.getOrElse(t, -1L)
            val left = table.sub(t, n)
            if (c >= n) { ok &&= left == c - n; ref(t) = c - n } else ok &&= left < 0
          case _ =>
            if (ref.contains(t)) {
              if (table.home(t) >= table.capacity * 15 / 16) nearEnd += 1
              table.remove(t); ref -= t
            }
        }
        ok &&= table.size == ref.size && table.get(t) == ref.getOrElse(t, -1L)
      }
      ok && ref.forall { case (t, c) => table.get(t) == c } && (distinct < 100 || nearEnd > 0)
    })
    assert(r.passed, Pretty.pretty(r))
  }

  test("TrackerCounts removes entries whose probe runs wrap around the table end") {
    val table = new TrackerCounts
    // Seven times whose home is the last slot of the 16-slot table: their
    // run covers the last slot and wraps to the first six.
    val last  = table.capacity - 1
    val ts    = Iterator.iterate(0L)(_ + 1_000_000L).filter(table.home(_) == last).take(7).toVector
    val rng   = new scala.util.Random(5)
    (0 until 50).foreach { _ =>
      ts.zipWithIndex.foreach { case (t, i) => assert(table.add(t, i + 1L)) }
      assert(table.capacity == 16)
      val gone = mutable.Set.empty[Long]
      rng.shuffle(ts).foreach { t =>
        table.remove(t); gone += t
        ts.zipWithIndex.foreach { case (u, i) => assert(table.get(u) == (if (gone(u)) -1L else i + 1L)) }
      }
      assert(table.size == 0)
    }
  }

  test("Tracker frontier is the minimum of a reference multiset; listeners and waiters fire on strict advances") {
    check(Prop.forAll(Gen.listOfN(60, genTrackerOp)) { ops =>
      val t     = new Tracker("t")
      val fired = mutable.ArrayBuffer.empty[(String, Long)]
      t.onAdvance(f => fired += (("first", f)))
      t.onAdvance(f => fired += (("second", f)))
      val ref     = mutable.TreeMap.empty[Long, Long]
      val waiting = mutable.ArrayBuffer.empty[(Long, Int)]
      def refFrontier = ref.headOption.fold(Long.MaxValue)(_._1)
      def refAdd(time: Long, n: Long): Unit = {
        val c = ref.getOrElse(time, 0L) + n
        if (c == 0) ref -= time else ref(time) = c
      }
      var ok = true
      ops.zipWithIndex.foreach { case (op, id) =>
        val pre = refFrontier
        fired.clear()
        val expected = mutable.ArrayBuffer.empty[(String, Long)]
        op match {
          case Hold(time, n) => t.hold(time, n); refAdd(time, n)
          case Release(pick, n) if ref.nonEmpty =>
            val (time, c) = ref.toSeq((pick % ref.size).toInt)
            val m         = math.min(n, c)
            t.release(time, m); refAdd(time, -m)
          case Downgrade(pick, by) if ref.nonEmpty =>
            val time = ref.keys.toSeq((pick % ref.size).toInt)
            t.downgrade(time, time + by); refAdd(time + by, 1); refAdd(time, -1)
          case WhenPassed(time) =>
            if (refFrontier > time) expected += (("waiter", id.toLong))
            else waiting += ((time, id))
            t.whenPassed(time)(fired += (("waiter", id.toLong)))
          case _ => ()
        }
        val f = refFrontier
        if (f > pre && !op.isInstanceOf[WhenPassed]) {
          expected += (("second", f)) += (("first", f))
          val due = waiting.filter(_._1 < f).sortBy(_._1) // stable: FIFO within a time
          waiting --= due
          expected ++= due.map(w => ("waiter", w._2.toLong))
        }
        ok &&= t.frontier == f && fired == expected
      }
      ok
    })
  }
}

object PropertySpec {
  /** A step on an [[EventHeap]]: push a run of entries in increasing
    * `(time, seq)` order (time deltas, 0 for a tie), push one entry at an
    * arbitrary key, push a copy of a queued key, or pop up to `k` entries.
    */
  sealed trait HeapStep
  final case class Monotone(deltas: List[Long]) extends HeapStep
  final case class Single(t: Long, s: Long)     extends HeapStep
  final case class Repeat(pick: Int)            extends HeapStep
  final case class Pop(k: Int)                  extends HeapStep

  val genHeapStep: Gen[HeapStep] = Gen.frequency(
    3 -> Gen.choose(1, 12).flatMap(Gen.listOfN(_, Gen.choose(0L, 3L))).map(Monotone(_)),
    2 -> (for { t <- Gen.choose(0L, 200L); s <- Gen.choose(0L, 5L) } yield Single(t, s)),
    1 -> Gen.choose(0, 1000).map(Repeat(_)),
    2 -> Gen.choose(1, 8).map(Pop(_)),
  )

  /** A scheduling call; `kids` are made from inside its callback. */
  sealed trait Op { def id: Int; def kids: List[Op] }
  final case class At(id: Int, t: Long, kids: List[Op])                           extends Op
  final case class Exec(id: Int, worker: Int, cost: Long, kids: List[Op])         extends Op
  final case class Send(id: Int, src: Int, dst: Int, bytes: Long, kids: List[Op]) extends Op

  val Workers    = 3
  val BytesPerNs = 0.5
  val LatencyNs  = 7L

  private def genOp(depth: Int, ids: Iterator[Int]): Gen[Op] =
    for {
      n    <- if (depth == 0) Gen.const(0) else Gen.choose(0, 3)
      kids <- Gen.listOfN(n, genOp(depth - 1, ids))
      op <- Gen.frequency(
        2 -> Gen.choose(0L, 40L).map(t => At(ids.next(), t, kids)),
        2 -> (for { w <- Gen.choose(0, Workers - 1); c <- Gen.oneOf(Gen.const(0L), Gen.choose(0L, 12L)) }
              yield Exec(ids.next(), w, c, kids)),
        2 -> (for {
                src <- Gen.choose(0, Workers - 1)
                dst <- Gen.frequency(1 -> Gen.const(src), 2 -> Gen.choose(0, Workers - 1))
                by  <- Gen.choose(0L, 9L)
              } yield Send(ids.next(), src, dst, by, kids)),
      )
    } yield op

  /** Up to 40 remote sends from one source: enough to grow its NIC lane's
    * ring, which its deliveries' kids and later sends then wrap around.
    */
  private def genBurst(ids: Iterator[Int]): Gen[List[Op]] =
    for {
      src <- Gen.choose(0, Workers - 1)
      n   <- Gen.choose(0, 40)
      sends <- Gen.listOfN(n, for {
                 dst  <- Gen.choose(1, Workers - 1).map(d => (src + d) % Workers)
                 by   <- Gen.choose(0L, 9L)
                 kids <- Gen.frequency(3 -> Gen.const(Nil), 1 -> genOp(1, ids).map(List(_)))
               } yield Send(ids.next(), src, dst, by, kids))
    } yield sends

  /** Calls made before `run(until)`, calls made after it, `until`. */
  val genSchedule: Gen[(List[Op], List[Op], Long)] = Gen.delay {
    val ids = Iterator.from(0)
    for {
      before <- Gen.choose(0, 12).flatMap(Gen.listOfN(_, genOp(2, ids)))
      burst  <- genBurst(ids)
      after  <- Gen.choose(0, 6).flatMap(Gen.listOfN(_, genOp(2, ids)))
      until  <- Gen.choose(0L, 50L)
    } yield (before ++ burst, after, until)
  }

  /** The (id, time) run order of a mixed schedule: each call becomes one
    * event at its time (a worker's completion, a NIC's arrival, or the
    * requested time), and events run by a sort over (max(time, now),
    * insertion).
    */
  def reference(before: List[Op], after: List[Op], until: Long): Seq[(Int, Long)] = {
    val pending = mutable.ArrayBuffer.empty[(Long, Int, Op)]
    val log     = mutable.ArrayBuffer.empty[(Int, Long)]
    val freeAt  = new Array[Long](Workers)
    val nicAt   = new Array[Long](Workers)
    var now     = 0L
    var seq     = 0
    def schedule(o: Op): Unit = {
      val t = o match {
        case At(_, t, _) => t
        case Exec(_, w, cost, _) =>
          freeAt(w) = math.max(freeAt(w), now) + cost
          freeAt(w)
        case Send(_, src, dst, bytes, _) =>
          if (src == dst) now
          else {
            nicAt(src) = math.max(nicAt(src), now) + math.ceil(bytes / BytesPerNs).toLong
            nicAt(src) + LatencyNs
          }
      }
      seq += 1
      pending += ((math.max(t, now), seq, o))
    }
    def run(limit: Long): Unit = {
      var next = pending.sortBy(p => (p._1, p._2)).headOption
      while (next.exists(_._1 <= limit)) {
        val p = next.get
        pending -= p
        now = p._1
        log += ((p._3.id, now))
        p._3.kids.foreach(schedule)
        next = pending.sortBy(p => (p._1, p._2)).headOption
      }
    }
    before.foreach(schedule)
    run(until)
    now = math.max(now, until)
    after.foreach(schedule)
    run(Long.MaxValue)
    log.toSeq
  }

  sealed trait TrackerOp
  final case class Hold(t: Long, n: Long)         extends TrackerOp
  final case class Release(pick: Int, n: Long)    extends TrackerOp
  final case class Downgrade(pick: Int, by: Long) extends TrackerOp
  final case class WhenPassed(t: Long)            extends TrackerOp

  val genTrackerOp: Gen[TrackerOp] = Gen.frequency(
    4 -> (for { t <- Gen.choose(0L, 30L); n <- Gen.choose(1L, 3L) } yield Hold(t, n)),
    4 -> (for { p <- Gen.choose(0, 1000); n <- Gen.choose(1L, 3L) } yield Release(p, n)),
    2 -> (for { p <- Gen.choose(0, 1000); by <- Gen.choose(0L, 5L) } yield Downgrade(p, by)),
    2 -> Gen.choose(0L, 30L).map(WhenPassed(_)),
  )
}
