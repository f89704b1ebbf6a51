package org.apache.spark

/** Waits until every queued listener event has been delivered. Spark keeps
  * the listener bus package-private; tests that count work through a
  * listener drain it before they read their counters.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
