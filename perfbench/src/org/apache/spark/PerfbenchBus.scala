package org.apache.spark

/** Listener events arrive asynchronously; the traced run reads its
  * listener only after every event posted so far has been delivered.
  * Spark exposes that wait only inside its own package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
