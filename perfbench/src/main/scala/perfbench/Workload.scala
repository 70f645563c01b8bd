package perfbench

import repro.data.{DatasetSpec, Datasets}

/** One benchmark cell: a dataset analog at a fixed size, k, iteration count
  * and execution path. `frac` scales the analog's n through the public
  * `Datasets.generate` knob. Each kernel's warm-up fits add up to at least
  * `warmupPerKernelS` seconds, so cheap kernels see as many JIT-relevant
  * iterations as expensive ones; `warmupPasses` untimed roster passes
  * follow.
  * A run fits from `inits` k-means++ inits, one per timed pass in turn, so
  * its figures do not hinge on how well one init prunes.
  */
final case class Workload(
    name: String,
    dataset: String,
    frac: Double,
    k: Int,
    iterations: Int,
    spark: Boolean,
    partitions: Int,
    warmupPerKernelS: Double,
    warmupPasses: Int
) {
  def inits: Int = Workload.initsPerRun
  def spec: DatasetSpec = Datasets.byName(dataset)
  def n: Int = math.max(32, (spec.n * frac).toInt)
  def d: Int = spec.d
}

object Workload {
  val initsPerRun = 4
  /** Set-ups per run; `setup_s` is their median. */
  val setupReps = 9

  val all: Seq[Workload] = Seq(
    // Kernel-bound: distance arithmetic at d = 57 dominates; the driver is ~3%.
    Workload("local-bigcross-k100", "BigCross", 0.25, 100, 10, spark = false, 1, 0.3, 0),
    // Driver-bound: k = 1000 makes CentroidInfo and Grouper O(k^2) per
    // iteration; at d = 2 the n·k bound arrays (40 MB each for Elka, Drift
    // and Full) make memory traffic, not arithmetic, the kernels' cost.
    Workload("local-nyc-k1000", "NYC", 0.125, 1000, 10, spark = false, 1, 0.3, 0),
    // Spark-bound: the first workload's cell through SparkKMeans on local[4].
    // Spark's scheduler code needs more than one fit per kernel to warm up,
    // so one whole roster pass follows the cold fits.
    Workload("spark-bigcross-k100", "BigCross", 0.25, 100, 10, spark = true, 4, 0.0, 1),
  )

  val byName: Map[String, Workload] = all.map(w => w.name -> w).toMap
}
