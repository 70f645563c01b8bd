package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** The listener bus delivers events asynchronously; the benchmark reads its
  * listener only after every event of a fit has been delivered. The drain
  * call is package-private to Spark, hence this bridge.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
