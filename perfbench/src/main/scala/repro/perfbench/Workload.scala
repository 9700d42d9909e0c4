package repro.perfbench

import java.time.Instant
import scala.collection.mutable

/** Result of one pass of a workload. Host times cover only the timed spans
  * (calls into the program); output checks run outside them.
  */
final case class Pass(
    wallNs: Long,
    /** Host time of each step of the pass. */
    steps: Seq[Step],
    /** Simulated nanoseconds advanced (0 when there is no simulated clock). */
    simNs: Long,
    checks: Seq[(String, Boolean)],
    digest: String,
    /** Recorded per-layer numbers of this pass, by metric name. */
    layer: Map[String, Double],
    /** Wall-clock windows of the timed spans, to select profiler samples. */
    windows: Seq[(Instant, Instant)],
    /** Bytes the calling thread allocated inside the timed spans. */
    allocBytes: Long,
)

/** One step of a pass: its host time and whether it carries a migration. */
final case class Step(ms: Double, migrating: Boolean)

/** A benchmark workload: repeatable set-up and passes over generated inputs. */
trait Workload {
  /** Fewest timed passes per run, whatever `--seconds` says. */
  def minPasses: Int = 1

  /** Timed set-up repetitions after each untraced pass. */
  def setupReps: Int

  /** Untimed set-up repetitions after the warm-up pass, for set-ups that a
    * pass alone does not run often enough for the JIT to compile them.
    */
  def setupWarmupReps: Int = 0

  /** One set-up repetition; returns its host nanoseconds. */
  def setup(): Long

  /** One pass; `traced` asks for the per-layer accounting that perturbs
    * timing (Spark listener drains), which untraced passes skip.
    */
  def pass(index: Int, traced: Boolean): Pass

  /** The untimed warm-up; a partial warm-up returns an empty digest. */
  def warmup(): Pass = pass(-1, traced = false)

  def close(): Unit = ()
}

/** Times calls into the program, keeping a host-ns total, the calling
  * thread's allocation and the wall-clock windows used to select profiler
  * samples.
  */
final class Spans {
  val windows    = mutable.ArrayBuffer.empty[(Instant, Instant)]
  var totalNs    = 0L
  var allocBytes = 0L

  def apply[A](f: => A): (A, Long) = {
    val i0 = Instant.now()
    val a0 = Jvm.threadAllocated
    val t0 = System.nanoTime()
    val a  = f
    val ns = System.nanoTime() - t0
    allocBytes += Jvm.threadAllocated - a0
    windows += ((i0, Instant.now()))
    totalNs += ns
    (a, ns)
  }
}

/** Output checks, recorded as (name, passed). */
object Check {
  /** Run `body` as the check `name`: it passes when `body` returns. */
  def guard[A](checks: mutable.Buffer[(String, Boolean)], name: String)(body: => A): Option[A] =
    try {
      val a = body
      checks += ((name, true))
      Some(a)
    } catch {
      case e: Exception =>
        Console.err.println(s"check '$name' failed: $e")
        checks += ((name, false))
        None
    }

  def apply(checks: mutable.Buffer[(String, Boolean)], name: String, ok: Boolean, detail: => String = ""): Unit = {
    if (!ok) Console.err.println(s"check '$name' failed ${detail}")
    checks += ((name, ok))
  }
}
