package repro.timely

import org.scalatest.funsuite.AnyFunSuite

class SimSpec extends AnyFunSuite {

  test("events run in time order") {
    val sim = new Sim
    val log = collection.mutable.ArrayBuffer.empty[Int]
    sim.at(30)(log += 3)
    sim.at(10)(log += 1)
    sim.at(20)(log += 2)
    sim.run()
    assert(log.toSeq == Seq(1, 2, 3))
  }

  test("same-time events run in insertion order") {
    val sim = new Sim
    val log = collection.mutable.ArrayBuffer.empty[Int]
    (0 until 10).foreach(i => sim.at(5)(log += i))
    sim.run()
    assert(log.toSeq == (0 until 10))
  }

  test("events scheduled in the past are clamped to now") {
    val sim = new Sim
    var ran = -1L
    sim.at(100) { sim.at(50) { ran = sim.now } }
    sim.run()
    assert(ran == 100L)
  }

  test("nested scheduling preserves determinism") {
    val sim = new Sim
    val log = collection.mutable.ArrayBuffer.empty[String]
    sim.at(10) { log += "a"; sim.at(10)(log += "b"); sim.at(5)(log += "c") }
    sim.run()
    assert(log.toSeq == Seq("a", "b", "c"))
  }

  test("run(until) stops and advances the clock") {
    val sim = new Sim
    var ran = false
    sim.at(1000) { ran = true }
    sim.run(until = 500)
    assert(!ran && sim.now == 500)
    sim.run()
    assert(ran)
  }

  test("executed counts the events run, whatever scheduled them") {
    val sim = new Sim
    val w   = new SimWorker(0, sim)
    val net = new Net(sim, bytesPerNs = 1.0, latencyNs = 10L)
    sim.at(10) {
      sim.at(20)(())
      w.exec(5)(_ => ())            // done at 15
      w.exec(0)(_ => ())            // queued behind it: done at 15
      net.send(0, 0, 8)(_ => ())    // local: at 10
      net.send(0, 1, 8)(_ => ())    // remote: 10 + 8 + 10 = 28
    }
    assert(sim.executed == 0L)
    sim.run(until = 15)
    assert(sim.executed == 4L)
    sim.run()
    assert(sim.executed == 6L && sim.now == 28L)
    sim.run()
    assert(sim.executed == 6L)
  }

  test("worker executes FIFO and accumulates queueing delay") {
    val sim = new Sim
    val w   = new SimWorker(0, sim)
    val done = collection.mutable.ArrayBuffer.empty[Long]
    sim.at(0) { w.exec(100)(done += _); w.exec(50)(done += _) }
    sim.run()
    assert(done.toSeq == Seq(100L, 150L))
    assert(w.busyNs == 150L)
  }

  test("worker idle time is not charged") {
    val sim = new Sim
    val w   = new SimWorker(0, sim)
    var d1  = 0L
    var d2  = 0L
    sim.at(0)(w.exec(10) { d1 = _ })
    sim.at(1000)(w.exec(10) { d2 = _ })
    sim.run()
    assert(d1 == 10L && d2 == 1010L && w.busyNs == 20L)
  }

  test("zero-cost tasks complete at submission time") {
    val sim = new Sim
    val w   = new SimWorker(0, sim)
    var d   = -1L
    sim.at(7)(w.exec(0) { d = _ })
    sim.run()
    assert(d == 7L)
  }

  test("local network sends deliver immediately and track no bytes") {
    val sim = new Sim
    val net = new Net(sim, bytesPerNs = 1.0, latencyNs = 100)
    var at  = -1L
    sim.at(5)(net.send(2, 2, 1000) { at = _ })
    sim.run()
    assert(at == 5L && net.inFlightBytes == 0L)
  }

  test("remote sends pay bandwidth plus latency") {
    val sim = new Sim
    val net = new Net(sim, bytesPerNs = 2.0, latencyNs = 100)
    var at  = -1L
    sim.at(0)(net.send(0, 1, 1000) { at = _ })
    sim.run()
    assert(at == 500 + 100)
  }

  test("NIC serializes sends from the same source (flow control)") {
    val sim = new Sim
    val net = new Net(sim, bytesPerNs = 1.0, latencyNs = 0)
    val at  = collection.mutable.ArrayBuffer.empty[Long]
    sim.at(0) { net.send(0, 1, 100)(at += _); net.send(0, 2, 100)(at += _) }
    sim.run()
    assert(at.toSeq == Seq(100L, 200L))
  }

  test("in-flight bytes accumulate while queued at the NIC") {
    val sim = new Sim
    val net = new Net(sim, bytesPerNs = 1.0, latencyNs = 0)
    sim.at(0) { net.send(0, 1, 1000)(_ => ()); net.send(0, 1, 1000)(_ => ()) }
    sim.at(500) { assert(net.inFlightBytes == 2000L) }
    sim.at(1500) { assert(net.inFlightBytes == 1000L) }
    sim.run()
    assert(net.inFlightBytes == 0L)
  }

  test("distinct sources transmit in parallel") {
    val sim = new Sim
    val net = new Net(sim, bytesPerNs = 1.0, latencyNs = 0)
    val at  = collection.mutable.ArrayBuffer.empty[Long]
    sim.at(0) { net.send(0, 2, 100)(at += _); net.send(1, 2, 100)(at += _) }
    sim.run()
    assert(at.toSeq == Seq(100L, 100L))
  }
}

class TrackerSpec extends AnyFunSuite {

  test("empty tracker has maximal frontier") {
    assert(new Tracker("t").frontier == Long.MaxValue)
  }

  test("frontier is the minimum outstanding pointstamp") {
    val t = new Tracker("t")
    t.hold(5); t.hold(3); t.hold(9)
    assert(t.frontier == 3)
    t.release(3)
    assert(t.frontier == 5)
  }

  test("counts are multiset counts") {
    val t = new Tracker("t")
    t.hold(4, 3)
    t.release(4); t.release(4)
    assert(t.frontier == 4)
    t.release(4)
    assert(t.frontier == Long.MaxValue)
  }

  test("negative counts are rejected") {
    val t = new Tracker("t")
    t.hold(1)
    intercept[IllegalArgumentException] { t.release(1, 2) }
  }

  test("downgrade never transiently empties the tracker") {
    val t = new Tracker("t")
    t.hold(10)
    var advancedTo = List.empty[Long]
    t.onAdvance(f => advancedTo ::= f)
    t.downgrade(10, 20)
    assert(t.frontier == 20 && advancedTo == List(20L))
  }

  test("downgrade must not go backwards") {
    val t = new Tracker("t")
    t.hold(10)
    intercept[IllegalArgumentException] { t.downgrade(10, 5) }
  }

  test("listeners fire once per strict advance with the new frontier") {
    val t   = new Tracker("t")
    val log = collection.mutable.ArrayBuffer.empty[Long]
    t.hold(1); t.hold(2)
    t.onAdvance(log += _)
    t.hold(1)      // no advance
    t.release(1)   // still one count at 1
    assert(log.isEmpty)
    t.release(1)
    assert(log.toSeq == Seq(2L))
  }

  test("whenPassed fires immediately if already passed") {
    val t     = new Tracker("t")
    var fired = false
    t.whenPassed(5) { fired = true }
    assert(fired)
  }

  test("whenPassed fires exactly when the frontier strictly passes t") {
    val t     = new Tracker("t")
    var fired = false
    t.hold(5); t.hold(6)
    t.whenPassed(5) { fired = true }
    t.release(5)
    assert(!fired || t.frontier > 5)
    assert(fired) // frontier is now 6 > 5
  }

  test("whenPassed waiters fire in time order") {
    val t   = new Tracker("t")
    val log = collection.mutable.ArrayBuffer.empty[Int]
    t.hold(0)
    t.whenPassed(3)(log += 3)
    t.whenPassed(1)(log += 1)
    t.whenPassed(2)(log += 2)
    assert(log.isEmpty)
    t.release(0)
    assert(log.toSeq == Seq(1, 2, 3))
  }

  test("reentrant hold/release inside a listener is safe") {
    val t = new Tracker("t")
    t.hold(1)
    var secondFired = false
    t.whenPassed(1) { t.hold(5); t.release(5) }
    t.whenPassed(4) { secondFired = true }
    t.release(1)
    assert(secondFired)
  }

  test("probe passed/whenPassed mirror the tracker semantics") {
    val p = new Tracker("s-output")
    p.hold(7)
    assert(p.passed(6) && !p.passed(7))
    var fired = false
    p.whenPassed(7) { fired = true }
    p.release(7)
    assert(fired && p.frontier == Long.MaxValue)
  }
}
