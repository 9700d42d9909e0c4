package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Random operation sequences for the per-bin state table, checked against
  * a plain reference model, and random migrations of the engine, checked
  * against a run without one.
  */
class PropertySpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), p)
    assert(r.passed, Pretty.pretty(r))
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
