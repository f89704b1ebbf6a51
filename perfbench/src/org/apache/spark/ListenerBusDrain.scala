package org.apache.spark

/** Waits until every queued listener event has been delivered. Spark keeps
  * the listener bus package-private; the traced run drains it so that the
  * counters of a cube build are complete before they are read.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
