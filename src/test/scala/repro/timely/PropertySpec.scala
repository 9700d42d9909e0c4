package repro.timely

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Random schedules for the event heap of [[Sim]] and random pointstamp
  * traffic for [[Tracker]], each checked against a plain reference model.
  */
class PropertySpec extends AnyFunSuite {
  import PropertySpec._

  private def check(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), p)
    assert(r.passed, Pretty.pretty(r))
  }

  test("Sim runs random nested and past-clamped schedules in (max(t, now), insertion) order") {
    check(Prop.forAll(genSchedule) { case (before, after, until) =>
      val sim = new Sim
      val log = mutable.ArrayBuffer.empty[(Int, Long)]
      def schedule(e: Ev): Unit = sim.at(e.t) { log += ((e.id, sim.now)); e.kids.foreach(schedule) }
      before.foreach(schedule)
      sim.run(until)
      after.foreach(schedule)
      sim.run()
      log.toSeq == reference(before, after, until) && sim.idle
    })
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
  final case class Ev(id: Int, t: Long, kids: List[Ev])

  private def genEv(depth: Int, ids: Iterator[Int]): Gen[Ev] =
    for {
      t    <- Gen.choose(0L, 40L)
      n    <- if (depth == 0) Gen.const(0) else Gen.choose(0, 3)
      kids <- Gen.listOfN(n, genEv(depth - 1, ids))
    } yield Ev(ids.next(), t, kids)

  /** Events scheduled before `run(until)`, events scheduled after it, `until`. */
  val genSchedule: Gen[(List[Ev], List[Ev], Long)] = Gen.delay {
    val ids = Iterator.from(0)
    for {
      before <- Gen.choose(0, 12).flatMap(Gen.listOfN(_, genEv(2, ids)))
      after  <- Gen.choose(0, 6).flatMap(Gen.listOfN(_, genEv(2, ids)))
      until  <- Gen.choose(0L, 50L)
    } yield (before, after, until)
  }

  /** The schedule's (id, time) run order, by a sort over (time, insertion). */
  def reference(before: List[Ev], after: List[Ev], until: Long): Seq[(Int, Long)] = {
    val pending = mutable.ArrayBuffer.empty[(Long, Int, Ev)]
    val log     = mutable.ArrayBuffer.empty[(Int, Long)]
    var now     = 0L
    var seq     = 0
    def schedule(e: Ev): Unit = { seq += 1; pending += ((math.max(e.t, now), seq, e)) }
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
