package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Random operation sequences for the notificator heap and the per-bin
  * state table, each checked against a plain reference model, and random
  * migrations of the engine, checked against a run without one.
  */
class PropertySpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), p)
    assert(r.passed, Pretty.pretty(r))
  }

  /** `Some(t)`: schedule at t; `None`: drain below the next generated time. */
  private val genNotifyOps: Gen[List[(Option[Long], Long)]] =
    Gen.listOf(for {
      drain <- Gen.frequency(3 -> false, 1 -> true)
      t     <- Gen.choose(0L, 20L)
    } yield (if (drain) None else Some(t), t))

  test("Notificator drains random interleaved schedules in (t, seq) order") {
    check(Prop.forAll(genNotifyOps) { ops =>
      val n    = new Notificator[Long, Long]
      val into = new Notificator.Due[Long, Long]
      val ref  = mutable.ArrayBuffer.empty[(Long, Long)]
      var seq  = 0L
      var ok   = true
      // Drain below `f` into the reused due set and check the records S reads.
      def drain(f: Long): Unit = {
        val due = ref.filter(_._1 < f).sortBy(identity)
        ref --= due
        ok &&= n.drainTo(f, into) == due.map(_._2).sum
        into.sort()
        ok &&= readDue(into).map(x => (x._1, x._2.value, x._2.weight)) == due.map(x => (x._1, x._2, x._2)).toSeq
      }
      ops.foreach {
        case (Some(t), _) =>
          seq += 1
          n.schedule(t, Rec(t, seq, weight = seq), seq)
          ref += ((t, seq))
        case (None, f) => drain(f)
      }
      drain(Long.MaxValue)
      ok && ref.isEmpty && n.isEmpty && n.minTime == Long.MaxValue
    })
  }

  /** Everything in `due`, in the order it is read. */
  private def readDue(due: Notificator.Due[Long, Long]): Seq[(Long, Rec[Long, Long])] = {
    val out = mutable.ArrayBuffer.empty[(Long, Rec[Long, Long])]
    while (!due.isEmpty) { out += ((due.minTime, due.minRec)); due.removeMin() }
    out.toSeq
  }

  test("a due set merges the runs of several notificators into (t, seq) order, batch after batch") {
    // Per batch: records scheduled on a few bins, then a frontier drained
    // from the bins in a random order.
    val genBatch = for {
      recs     <- Gen.listOf(for { bin <- Gen.choose(0, 5); t <- Gen.choose(0L, 30L) } yield (bin, t))
      frontier <- Gen.choose(0L, 40L)
      order    <- Gen.oneOf((0 until 6).permutations.toSeq)
    } yield (recs, frontier, order)
    check(Prop.forAll(Gen.listOf(genBatch)) { batches =>
      val bins = Array.fill(6)(new Notificator[Long, Long])
      val due  = new Notificator.Due[Long, Long]
      val ref  = mutable.ArrayBuffer.empty[(Long, Long)]
      var seq  = 0L
      batches.forall { case (recs, f, order) =>
        recs.foreach { case (b, t) => seq += 1; bins(b).schedule(t, Rec(b.toLong, seq, weight = 1L), seq); ref += ((t, seq)) }
        val weight = order.map(b => if (bins(b).minTime < f) bins(b).drainTo(f, due) else 0L).sum
        due.sort()
        val expected = ref.filter(_._1 < f).sortBy(identity).toSeq
        ref --= expected
        weight == expected.size && readDue(due).map(x => (x._1, x._2.value)) == expected && due.isEmpty
      }
    })
  }

  test("BinStates matches a reference map under random inserts and updates") {
    // Keys of one bin share their residue, as under `key % bins`.
    val genOps = Gen.listOf(for {
      k <- Gen.choose(0L, 40L).map(_ * 1024 + 7)
      v <- Gen.choose(0L, 100L)
    } yield (k, v))
    check(Prop.forAll(genOps) { ops =>
      val s   = new BinStates[Long, Long]
      val ref = mutable.HashMap.empty[Long, Long]
      ops.foreach { case (k, v) =>
        val i = s.indexOf(k)
        if (i < 0) s.insert(k, v) else s.setValueAt(i, s.valueAt(i) + v)
        ref(k) = ref.getOrElse(k, 0L) + v
      }
      s.iterator.toMap == ref.toMap && s.size == ref.size && ref.keys.forall(k => s.get(k).contains(ref(k)))
    })
  }

  test("BinStates keeps keys apart whose hash codes collide") {
    // (k, h) names a key with `##` == k: k itself for h == 0, otherwise a
    // key outside the Int range whose halves are h and k ^ h.
    def key(k: Int, h: Int): Long = if (h == 0) k.toLong else (h.toLong << 32) | ((k ^ h) & 0xFFFFFFFFL)
    val genOps = Gen.listOf(for {
      k <- Gen.choose(0, 3)
      h <- Gen.choose(0, 60)
      v <- Gen.choose(0L, 100L)
    } yield (key(k, h), v))
    check(Prop.forAll(genOps) { ops =>
      val s   = new BinStates[Long, Long]
      val ref = mutable.HashMap.empty[Long, Long]
      var ok  = true
      ops.foreach { case (k, v) =>
        val i = s.indexOf(k)
        ok &&= (i >= 0) == ref.contains(k)
        if (i < 0) s.insert(k, v) else s.setValueAt(i, s.valueAt(i) + v)
        ref(k) = ref.getOrElse(k, 0L) + v
      }
      val bySlot = (0 until s.slots).filter(s.occupied).map(s.valueAt).sum
      ok && s.iterator.toMap == ref.toMap && s.size == ref.size && bySlot == ref.values.sum &&
        (0 to 3).forall(k => s.indexOf(key(k, 61)) < 0)
    })
  }

  test("random migrations keep the final state and Properties 1-3") {
    val (w, b) = (4, 16)
    // Moves may name a bin twice or move it to its current owner.
    val genMove     = for { bin <- Gen.choose(0, b - 1); to <- Gen.choose(0, w - 1) } yield (bin, to)
    val genStrategy = Gen.oneOf(Gen.const(AllAtOnce), Gen.const(Fluid()), Gen.choose(1, 6).map(Batched(_)))
    val genCase = for {
      moves    <- Gen.choose(0, 24).flatMap(Gen.listOfN(_, genMove))
      strategy <- genStrategy
      atEpoch  <- Gen.choose(1, 10)
      lead     <- Gen.oneOf(0L, 1L, 500_000L, 2_000_000L, 3_500_000L)
      echo     <- Gen.oneOf(false, true)
    } yield (moves, strategy, atEpoch, lead, echo)
    val base = Seq(false, true).map(e => e -> WordCountRig.drive(w, b, 12, 40, strategy = None, echo = e).finalState).toMap
    check(Prop.forAll(genCase) {
      case (moves, strategy, atEpoch, lead, echo) =>
        // Property 3: `drive` requires the output frontier to drain.
        val mig = WordCountRig.drive(w, b, epochs = 12, keys = 40, strategy = Some(strategy),
          migrateAtEpoch = atEpoch, echo = echo, moves = moves, controlLeadNs = lead)
        // Property 1: each key's outputs follow timestamp order; Property 2:
        // every record is applied at its configured worker.
        mig.finalState == base(echo) &&
          mig.outputs.groupBy(_._2).values.forall(os => os.map(_._1) == os.map(_._1).sorted) &&
          mig.applications.forall { case (t, k, at) => mig.routeOf(t, (k % b).toInt) == at }
    })
  }
}
