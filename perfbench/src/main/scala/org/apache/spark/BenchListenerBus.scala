package org.apache.spark

/** Access to the listener bus, whose drain is package-private: per-batch
  * listener totals are read only after every event of the batch arrived.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
