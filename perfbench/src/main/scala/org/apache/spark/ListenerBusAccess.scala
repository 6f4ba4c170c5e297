package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so that
  * counters read right after an action include all of its jobs, stages and
  * tasks. The bus is package-private to Spark, hence this package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
