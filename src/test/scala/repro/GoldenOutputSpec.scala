package repro

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.harness.{CountingWorkload, LatencyHistogram, LatencySeries}
import repro.nexmark.QueryRig
import repro.nexmark.QueryRig.NexConfig
import scala.collection.mutable

/** Pins the simulator's output bit for bit. Each test hashes the simulated
  * results of a short run and compares the hash with a constant, so a change
  * that alters any simulated latency, migration time or output order fails
  * here. A pure performance change must leave every constant as it is; a
  * change that alters the simulation on purpose updates the constants and
  * says why.
  */
class GoldenOutputSpec extends AnyFunSuite {

  private final class Hash {
    private val md = MessageDigest.getInstance("SHA-256")
    def add(x: Any): Hash = { md.update((x.toString + "\n").getBytes("UTF-8")); this }
    def addAll(xs: IterableOnce[Any]): Hash = { xs.iterator.foreach(add); this }
    def hex: String = md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private val countCfg = CountingWorkload.Config(
    workers = 8,
    bins = 256,
    domain = 10_000_000L,
    ratePerSec = 2_000_000L,
    bytesPerKey = 8L,
    cost = CostModel.keyCount,
    native = false,
    groupsPerEpoch = 4,
    seed = 5L,
  )

  private val countStrategies: Seq[(String, Option[Strategy])] = Seq(
    "none"        -> None,
    "all-at-once" -> Some(AllAtOnce),
    "fluid"       -> Some(Fluid()),
    "batched"     -> Some(Batched(8)),
    "optimized"   -> Some(Batched(8, gapNs = 5_000_000L)),
  )

  private val countGolden = Map(
    "none"        -> "90ec5e7e685d93f55e3270c7f080b4aa9939b4722837a55944359fcb0c66a193",
    "all-at-once" -> "52e131cb6b370ee599a3bb8bd20d51897cdb29ef1a1e59e466fbafb895ceac2d",
    "fluid"       -> "b9d5171ec8413720490847556661147389dbb50583c56928fc9d7974fc5940b2",
    "batched"     -> "1ef63145e9cb12446ace16fd87aa643bfb91dae3f134eac8de16315d104e8b32",
    "optimized"   -> "d9837cdc2ff4e97a35125cd0754772ed16fbd528e991ee4188c27d44f644b5ac",
  )

  for ((label, strategy) <- countStrategies) {
    test(s"counting workload under $label reproduces its simulated output") {
      val r = CountingWorkload.run(countCfg, 300_000_000L, strategy, memSampleEveryNs = 20_000_000L)
      assert(r.migrations.size == (if (strategy.isEmpty) 0 else 2))
      val h = new Hash().addAll(r.hist.ccdf).addAll(r.series.rows).addAll(r.migrations).addAll(r.memSamples)
        .add(r.steadyMaxLatencyNs).add(r.hist.count)
      assert(h.hex == countGolden(label))
    }
  }

  /** NEXMark `q` under `QueryRig.drive`, the experiments' driver, with the
    * canonical migrations under batched(4): outputs in emission order,
    * latency CCDF and migration times.
    */
  private val smallNex = NexConfig(
    workers = 4,
    bins = 64,
    ratePerSec = 50_000,
    windowNs = 200_000_000L,
    q8WindowNs = 800_000_000L,
    auctionLifeNs = 200_000_000L,
    cost = CostModel.keyCount.copy(perRecordNs = 250.0),
    seed = 3L,
  )

  /** The run of `q` as two hashes: timing (latency CCDF and series,
    * migration windows, end time) and outputs in emission order. Same-time
    * records from different F's reach an S in an order the model leaves
    * open, as timely does, so a change to that order may alter the outputs
    * of an order-sensitive query while its timing stays the same.
    */
  private def nexmarkHashes(q: Int, cfg: NexConfig = smallNex, horizonNs: Long = 600_000_000L,
      strategy: Strategy = Batched(4)): (String, String) = {
    val hist   = new LatencyHistogram
    val series = new LatencySeries
    val outs   = mutable.ArrayBuffer.empty[Product]
    val built  = QueryRig.build(q, cfg, hist, series, collect = outs)
    val migs   = QueryRig.drive(built, cfg, horizonNs, Some(strategy))
    assert(migs.size == 2 && outs.nonEmpty)
    (new Hash().addAll(hist.ccdf).addAll(series.rows).addAll(migs).add(built.sim.now).hex, new Hash().addAll(outs).hex)
  }

  test("NEXMark Q4 reproduces its simulated outputs in emission order") {
    assert(nexmarkHashes(4) == ("5929a0cf7492eb37a784c3fefda2c79c975f224928d278bb2add7b8c3edabe6b",
      "5fda6bd163db8d28725166ed34473e209ac47d9286ddb4cadbdfcce70616a1c1"))
  }

  test("NEXMark Q5 reproduces its simulated outputs in emission order") {
    assert(nexmarkHashes(5) == ("c259e8da97c4a0d59d58ea8b7681b644b35a93d91b5da49b86166ca1a3ca984e",
      "07744484846386513812c521d928d0b5dea62603d3a9edc04ac0fcd45b9487e0"))
  }

  /** The benchmark's NEXMark shape: 8 workers, 1024 bins, a 2 s window and
    * auction life, batched(16). Thousands of `probe` times are live at once,
    * and bins migrate while they hold post-dated records.
    */
  private val benchNex = smallNex.copy(
    workers = 8,
    bins = 1024,
    ratePerSec = 100_000,
    windowNs = 2_000_000_000L,
    q8WindowNs = 8_000_000_000L,
    auctionLifeNs = 2_000_000_000L,
  )

  /** (timing, outputs) hashes per query. Q5's outputs hash changed when F
    * began to send in destination order instead of the order of a Scala
    * `HashMap`: same-time records from different F's now reach stage 2's S
    * in another order, so its list of intermediate "hottest auction"
    * reports differs (177 reports instead of 176), while its timing hash is
    * unchanged.
    */
  private val benchNexGolden = Map(
    4 -> ("1be5ed7f806551792f7995b675db8797e23a8e43517c6e2da7a799ff2bd85930",
      "b6df28a424a5d2ab98fe05e54cbcaf7384f445bcfe1eb32f84bf631a38fe952c"),
    5 -> ("4fcfd11c17678f7f2b63b92cc92aa97c5c289d89bb39cad3198ae03b2728d831",
      "6d99d08ec996945ffe7e1e2c2203e895d1e4338335d945d4201a9fe9f0dc84c9"),
  )

  for (q <- Seq(4, 5)) {
    test(s"NEXMark Q$q at the benchmark's shape reproduces its simulated outputs") {
      assert(nexmarkHashes(q, benchNex, 1_500_000_000L, Batched(16)) == benchNexGolden(q))
    }
  }
}
