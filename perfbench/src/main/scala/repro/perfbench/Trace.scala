package repro.perfbench

import java.nio.file.{Files, Path}
import java.time.{Duration, Instant}
import jdk.jfr.Recording
import jdk.jfr.consumer.{RecordedEvent, RecordingFile}
import scala.jdk.CollectionConverters._

/** In-process JFR profile of the traced passes. Each execution or allocation
  * sample goes to its innermost frame of the program (`repro.*`, not the
  * benchmark), so JDK, Scala-collection and Spark time counts to its caller;
  * samples without such a frame go to `other`. Allocation sampling slows the
  * simulator by about half, so it runs in a pass of its own.
  */
object Trace {
  val Layers: Seq[String] = Seq(
    "timely.Sim", "timely.Tracker", "timely.Net",
    "core.FOp", "core.SOp", "core.Bin", "core.Notificator", "core.migration",
    "harness.LatencyHistogram", "harness.CountingWorkload",
    "nexmark.EventGen", "nexmark.queries", "nexmark.QueryRig",
    "sparkmega", "other",
  )

  /** Layer of a program class, or None for classes outside the program. */
  def layerOf(cls: String): Option[String] = {
    val c = cls.takeWhile(_ != '/') // hidden lambda classes carry a "/0x…" suffix
    def is(prefixes: String*) = prefixes.exists(c.startsWith)
    if (!c.startsWith("repro.") || c.startsWith("repro.perfbench.")) None
    else Some {
      if (is("repro.timely.Tracker", "repro.timely.Probe")) "timely.Tracker"
      else if (is("repro.timely.Net")) "timely.Net"
      else if (is("repro.timely.")) "timely.Sim"
      else if (is("repro.core.MegaphoneEngine$FOp")) "core.FOp"
      else if (is("repro.core.MegaphoneEngine$SOp")) "core.SOp"
      else if (is("repro.core.Notificator")) "core.Notificator"
      else if (is("repro.core.Bin", "repro.core.Rec")) "core.Bin"
      else if (is("repro.core.")) "core.migration"
      else if (is("repro.harness.LatencyHistogram", "repro.harness.LatencySeries")) "harness.LatencyHistogram"
      else if (is("repro.harness.CountingWorkload")) "harness.CountingWorkload"
      else if (is("repro.nexmark.EventGen", "repro.nexmark.Event", "repro.nexmark.Person",
                  "repro.nexmark.Auction", "repro.nexmark.Bid")) "nexmark.EventGen"
      else if (is("repro.nexmark.QueryRig")) "nexmark.QueryRig"
      else if (is("repro.nexmark.")) "nexmark.queries"
      else if (is("repro.sparkmega.")) "sparkmega"
      else "other"
    }
  }

  private def layerOfEvent(e: RecordedEvent): String = {
    val st = e.getStackTrace
    if (st == null) "other"
    else st.getFrames.asScala.iterator
      .map(f => f.getMethod.getType.getName)
      .find(_.startsWith("repro."))
      .flatMap(layerOf)
      .getOrElse("other")
  }

  /** Per layer: execution samples and sampled allocation weight, plus the
    * weight sampled on the calling thread (to scale weights to bytes).
    */
  final case class Profile(samples: Map[String, Long], allocWeight: Map[String, Long], callerWeight: Long) {
    def totalSamples: Long = samples.values.sum
  }

  /** Records execution samples, or with `allocation` allocation samples. */
  final class Session(file: Path, allocation: Boolean) {
    private val caller = Thread.currentThread().getId
    private val rec    = new Recording()
    if (allocation) rec.enable("jdk.ObjectAllocationSample").`with`("throttle", "300/s")
    else rec.enable("jdk.ExecutionSample").withPeriod(Duration.ofMillis(20))
    rec.setToDisk(true)
    rec.start()

    /** Stop recording and attribute the samples that fall in `windows`. */
    def finish(windows: Seq[(Instant, Instant)]): Profile = {
      rec.stop()
      Files.createDirectories(file.getParent)
      rec.dump(file)
      rec.close()
      val byStart = new java.util.TreeMap[Instant, Instant]()
      windows.foreach { case (a, b) => byStart.put(a, b) }
      def inWindow(t: Instant) = {
        val e = byStart.floorEntry(t)
        e != null && !t.isAfter(e.getValue)
      }
      val samples = collection.mutable.Map.empty[String, Long].withDefaultValue(0L)
      val alloc   = collection.mutable.Map.empty[String, Long].withDefaultValue(0L)
      var callerW = 0L
      RecordingFile.readAllEvents(file).asScala.foreach { e =>
        if (inWindow(e.getStartTime)) e.getEventType.getName match {
          case "jdk.ExecutionSample" => samples(layerOfEvent(e)) += 1
          case "jdk.ObjectAllocationSample" =>
            val w = e.getLong("weight")
            alloc(layerOfEvent(e)) += w
            if (e.getThread("eventThread") != null && e.getThread("eventThread").getJavaThreadId == caller) callerW += w
          case _ => ()
        }
      }
      Files.deleteIfExists(file)
      Profile(samples.toMap, alloc.toMap, callerW)
    }
  }
}
