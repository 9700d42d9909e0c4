package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.timely.EventHeap

/** A bin's pending post-dated records: §4.3's extended notificator. */
class NotificatorSpec extends AnyFunSuite {
  private def rec(v: Long) = Rec[Long, Long](0L, v)
  private def notificator  = new Bin(0, new WordCountRig.SumLogic).pending

  /** Pop the records strictly below `frontier`, as S does once they fall
    * due: the `(time, value)` pairs in the order they come out.
    */
  private def drain(n: EventHeap[Rec[Long, Long]], frontier: Long): Seq[(Long, Long)] = {
    val out = Seq.newBuilder[(Long, Long)]
    while (n.minTime < frontier) { out += ((n.minTime, n.minItem.value)); n.removeMin() }
    out.result()
  }

  test("drain returns triples strictly below the frontier, in time order") {
    val n = notificator
    n.push(30, 0, rec(3)); n.push(10, 0, rec(1)); n.push(20, 0, rec(2))
    assert(drain(n, 25) == Seq((10L, 1L), (20L, 2L)))
    assert(n.size == 1 && n.minTime == 30L)
  }

  test("drain at or below the min time returns nothing") {
    val n = notificator
    n.push(10, 0, rec(1))
    assert(drain(n, 10).isEmpty && n.size == 1)
  }

  test("empty notificator has maximal minTime") {
    val n = notificator
    assert(n.isEmpty && n.minTime == Long.MaxValue)
  }

  test("draining below Long.MaxValue empties the queue") {
    val n = notificator
    (1 to 5).foreach(i => n.push(i.toLong, 0, rec(i.toLong)))
    assert(drain(n, Long.MaxValue).size == 5 && n.isEmpty && n.minTime == Long.MaxValue)
  }

  test("many triples maintain heap order (priority-queue internals)") {
    val rng = new scala.util.Random(3)
    val n   = notificator
    val ts  = Seq.fill(1000)(rng.nextLong(1_000_000L))
    ts.foreach(t => n.push(t, 0, rec(t)))
    val drained = drain(n, Long.MaxValue).map(_._1)
    assert(drained == ts.sorted)
  }
}

class StrategySpec extends AnyFunSuite {
  private val moves = (0 until 10).map(b => (b, b % 3))

  test("all-at-once is a single batch with every move") {
    assert(AllAtOnce.batches(moves) == Seq(moves))
  }

  test("fluid is one move per batch, order preserved") {
    val bs = Fluid().batches(moves)
    assert(bs.size == moves.size && bs.flatten == moves)
  }

  test("batched groups by the requested size") {
    val bs = Batched(4).batches(moves)
    assert(bs.map(_.size) == Seq(4, 4, 2) && bs.flatten == moves)
  }

  test("optimized is batched with a gap and a distinct name") {
    val s = Batched(4, gapNs = 1000L)
    assert(s.name == "optimized" && s.gapNs == 1000L)
    assert(Batched(4).name == "batched" && Fluid().name == "fluid" && AllAtOnce.name == "all-at-once")
  }

  test("imbalance moves exactly half the bins of the first half of workers") {
    val bins = 64; val workers = 4
    val m = Moves.imbalance(bins, workers)
    assert(m.size == bins / 4)
    m.foreach { case (b, to) => assert(b % workers < workers / 2 && to == b % workers + workers / 2) }
  }

  test("rebalance returns every moved bin to its home worker") {
    val m = Moves.rebalance(64, 4)
    assert(m.map(_._1) == Moves.imbalance(64, 4).map(_._1))
    m.foreach { case (b, to) => assert(to == b % 4) }
  }

  test("imbalance/rebalance are disjoint from unmoved bins") {
    val movedBins = Moves.imbalance(64, 4).map(_._1).toSet
    (0 until 64).filterNot(movedBins).foreach(b => assert(b % 4 >= 2 || (b / 4) % 2 == 1))
  }
}

class CostModelSpec extends AnyFunSuite {

  test("bin scan cost is flat in cache then grows sublinearly") {
    val c = CostModel()
    assert(c.binScanNs(1L << 10) < c.binScanNs(1L << 16))
    assert(c.binScanNs(1L << 16) < c.binScanNs(1L << 20))
    // Sub-linear: doubling bins less than doubles the per-bin cost.
    val r = c.binScanNs(1L << 20) / c.binScanNs(1L << 19)
    assert(r < 2.0 && r > 1.0)
  }

  test("native model removes the bin scan entirely") {
    val n = CostModel.native(CostModel.keyCount)
    assert(n.binScanNs(1L << 20) == 0.0)
    assert(n.routeNs < CostModel.keyCount.routeNs)
  }

  test("hash-count model is strictly costlier per record than key-count") {
    assert(CostModel.hashCount.perRecordNs > CostModel.keyCount.perRecordNs)
  }
}

class BinSpec extends AnyFunSuite {
  private val logic = new repro.harness.CountingWorkload.CountLogic

  test("bin applies folds and tracks state per key") {
    val b = new Bin[Int, Unit, Unit](0, logic)
    b.apply(1L, Rec(7, (), 3L), _ => (), (_, _) => ())
    b.apply(2L, Rec(7, (), 2L), _ => (), (_, _) => ())
    b.apply(2L, Rec(8, (), 1L), _ => (), (_, _) => ())
    def count(k: Int) = b.states(k).asInstanceOf[repro.harness.CountingWorkload.Count].n
    assert(count(7) == 5L && count(8) == 1L)
  }

  test("sizeBytes includes modeled bytes and pending entries") {
    val b = new Bin[Int, Unit, Unit](0, logic)
    b.modeledBytes = 1000L
    b.pending.push(5L, 0L, Rec(1, ()))
    assert(b.sizeBytes == 1000L + 64L)
  }
}
