package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.{NexmarkExp, Table1Loc}
import repro.nexmark.QueryRig

/** Table 1: NEXMark implementation lines of code, Native vs Megaphone. */
class Table1LocBench extends AnyFunSuite {
  private lazy val rows = Table1Loc.rows()

  test("Table 1: print LOC per query, Native vs Megaphone") {
    println("\n=== Table 1: NEXMark query implementations, lines of code ===")
    println(Table1Loc.render(rows))
    assert(rows.size == 8)
  }

  test("Table 1: Megaphone needs no more code for stateful queries (Q3-Q6, Q8)") {
    // The paper's pattern: hand-tuned native implementations of stateful
    // queries carry the state/pending machinery Megaphone's interface
    // provides, so Megaphone is equal or smaller there.
    for (q <- Seq(3, 4, 5, 6, 8)) {
      val r = rows(q - 1)
      assert(r.megaphone <= r.native + 5, s"Q$q: megaphone ${r.megaphone} vs native ${r.native}")
    }
  }

  test("Table 1: stateless queries are comparable in both (paper: Megaphone slightly larger)") {
    for (q <- Seq(1, 2)) {
      val r = rows(q - 1)
      assert(math.abs(r.megaphone - r.native) <= 10)
    }
  }
}

/** Figures 5–12: NEXMark query latency timelines under migration, summarized
  * as (steady max, migration max, duration) per strategy.
  */
class NexmarkMigrationBench extends AnyFunSuite {
  private val cfg     = QueryRig.NexConfig()
  private val totalNs = 21_000_000_000L
  private lazy val rows = NexmarkExp.sweep(cfg, totalNs)

  test("Figs 5-12: print per-query migration summary (all-at-once vs batched)") {
    println("\n=== Figs 5-12: NEXMark query latency during the second migration ===")
    println(NexmarkExp.render(rows))
    assert(rows.size == 16)
  }

  test("Q1/Q2 (stateless): migration causes no latency spike (Figs 5-6)") {
    rows.filter(r => r.query <= 2).foreach { r =>
      assert(r.migMaxNs < 3 * math.max(1L, r.steadyMaxNs),
        s"Q${r.query}/${r.strategy}: mig ${r.migMaxNs} vs steady ${r.steadyMaxNs}")
    }
  }

  test("stateful queries: batched migration has lower spikes than all-at-once (Figs 7-10, 12)") {
    for (q <- Seq(3, 4, 5, 6, 8)) {
      val a = rows.find(r => r.query == q && r.strategy == "all-at-once").get
      val b = rows.find(r => r.query == q && r.strategy == "batched").get
      assert(a.migMaxNs >= b.migMaxNs, s"Q$q: all-at-once ${a.migMaxNs} vs batched ${b.migMaxNs}")
    }
  }

  test("Q4 (largest state among bounded queries): all-at-once spikes well above batched (Fig 8)") {
    val a = rows.find(r => r.query == 4 && r.strategy == "all-at-once").get
    val b = rows.find(r => r.query == 4 && r.strategy == "batched").get
    assert(a.migMaxNs > 3 * b.migMaxNs, s"all-at-once ${a.migMaxNs} vs batched ${b.migMaxNs}")
  }

  test("Q7 (minimal state): strategies are indistinguishable (Fig 11)") {
    val a = rows.find(r => r.query == 7 && r.strategy == "all-at-once").get
    val b = rows.find(r => r.query == 7 && r.strategy == "batched").get
    assert(math.max(a.migMaxNs, b.migMaxNs) < 3 * math.max(1L, math.min(a.migMaxNs, b.migMaxNs)))
  }

  test("every query keeps producing output across migrations") {
    rows.foreach(r => assert(r.outputs > 0, s"Q${r.query}/${r.strategy} produced no output"))
  }
}
