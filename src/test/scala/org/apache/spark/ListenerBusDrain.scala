package org.apache.spark

/** Waits until the listener bus has delivered every posted event (its drain
  * is package-private), so a listener's totals cover all finished jobs.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
