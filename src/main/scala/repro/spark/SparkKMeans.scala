package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._
import scala.reflect.ClassTag

/** Distributed execution of any registered kernel: points are partitioned
  * and cached once; each partition owns a kernel state (its slice of the
  * data plus all per-point bounds / the per-partition ball-tree). The driver
  * loop is `Runner.drive`, the same one the local runner uses: every
  * iteration broadcasts the `CentroidInfo` and runs one `runJob` over the
  * cached states, and the returned partials are merged on the driver in
  * partition order, so no iteration shuffles and the merge is deterministic.
  *
  * Partition states are mutated across iterations inside the cached RDD;
  * with `local[*]` and MEMORY_ONLY storage this is the standard iterative-ML
  * pattern (one state object per partition, one `step` per action).
  */
object SparkKMeans {

  def fit(spark: SparkSession, points: RDD[Array[Double]], strategy: Strategy, k: Int,
          init: Array[Array[Double]], maxIters: Int = 10, numPartitions: Int = 4,
          seed: Long = 17L): FitResult = {
    val sc = spark.sparkContext
    val bStrategy = sc.broadcast(strategy)

    val states = points
      .repartition(numPartitions)
      .mapPartitionsWithIndex { (pid, it) =>
        Iterator.single(bStrategy.value.newState(it.toArray, k, seed ^ pid))
      }
      .persist(StorageLevel.MEMORY_ONLY)
    states.count() // materialize before timing

    // One job: `f` runs on every partition's state with `shared` broadcast;
    // results come back in partition order.
    def onStates[A: ClassTag, U: ClassTag](shared: A)(f: (PartitionState, A) => U): Array[U] = {
      val b = sc.broadcast(shared)
      try sc.runJob(states, (it: Iterator[PartitionState]) => f(it.next(), b.value))
      finally b.destroy()
    }

    try Runner.drive(strategy, info => onStates(info)(_ step _).reduceLeft(_ merge _),
      cs => onStates(cs)(_ finalSse _).sum, k, init, maxIters, seed)
    finally states.unpersist(blocking = true)
  }

  /** DataFrame → RDD[Array[Double]] for a `features: array<double>` column. */
  def featuresRdd(df: DataFrame, col: String = "features"): RDD[Array[Double]] = {
    val idx = df.schema.fieldNames.indexOf(col)
    require(idx >= 0, s"no column '$col' in ${df.schema.fieldNames.mkString(",")}")
    df.rdd.map { (r: Row) => r.getSeq[Double](idx).toArray }
  }
}
