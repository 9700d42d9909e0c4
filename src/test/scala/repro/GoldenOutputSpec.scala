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

  private def nexmarkHash(q: Int, cfg: NexConfig = smallNex, horizonNs: Long = 600_000_000L,
      strategy: Strategy = Batched(4)): String = {
    val hist   = new LatencyHistogram
    val series = new LatencySeries
    val outs   = mutable.ArrayBuffer.empty[Product]
    val built  = QueryRig.build(q, cfg, hist, series, collect = outs)
    val migs   = QueryRig.drive(built, cfg, horizonNs, Some(strategy))
    assert(migs.size == 2 && outs.nonEmpty)
    new Hash().addAll(outs).addAll(hist.ccdf).addAll(series.rows).addAll(migs).add(built.sim.now).hex
  }

  test("NEXMark Q4 reproduces its simulated outputs in emission order") {
    assert(nexmarkHash(4) == "6324f31c8d931a6e0cdc9006cd546898c9ce47337a3e244242ff611fb3df7e8f")
  }

  test("NEXMark Q5 reproduces its simulated outputs in emission order") {
    assert(nexmarkHash(5) == "6701965ee51bd020d023855b4aeca8683b38aad0c4dbc76e872495dc653b6381")
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

  private val benchNexGolden = Map(
    4 -> "26f74b5361eb432739f14076b82cd72b3e6a31256316aa9004caf0cbafcdf8c2",
    5 -> "412937a9cc0b72a72e40443ce03546df6bfe800102c63a2d7c9cf394404c352f",
  )

  for (q <- Seq(4, 5)) {
    test(s"NEXMark Q$q at the benchmark's shape reproduces its simulated outputs") {
      assert(nexmarkHash(q, benchNex, 1_500_000_000L, Batched(16)) == benchNexGolden(q))
    }
  }
}
