package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import scala.collection.mutable
import scala.reflect.ClassTag
import repro.blocking.Blocking
import repro.embed.Embed

/** End-to-end result of an ER run over a dataset. */
final case class ERResult(
    partition: Vector[Set[Long]],
    usage: Usage,
    setsPerLevel: Vector[Int],
    numBlocks: Int,
)

/** The LLM-CER Spark driver (Algorithm 4 at dataset scale), plus the
  * generic per-block execution harness shared with every baseline.
  *
  * Dataflow: threshold and floor tuning read one validation sample, the
  * 600 smallest ids, drawn with `takeOrdered` on the records' RDD.
  * Blocking produces a record id -> block id function, which is
  * broadcast; one RDD shuffle (`groupInTask`) groups records by
  * block, hashed into one partition per core (adaptive execution does not
  * coalesce it) and grouped in the reduce task, and each group is
  * resolved by a per-block function running in the executor task (the
  * "LLM-based clustering UDF per partition"); outcomes are collected and
  * merged in block-id order, whatever the shuffle layout.
  */
object LLMCER {

  /** Per-block resolution function: (blockId, records) -> BlockResult.
    * Must be serializable — it ships to executors.
    */
  type BlockFn = (Long, Vector[Record]) => BlockResult

  /** Tune the blocking threshold on a labeled sample (§5.1). */
  def tunedThreshold(ds: Dataset[Record], strategy: Blocking.Strategy): Double = {
    val sample = validationSample(ds)
    tuneThreshold(sample, simOf(strategy, sample))
  }

  /** Tune the similarity threshold bt on a labeled validation sample
    * (§5.1's 0.05..0.95 sweep) by maximising pairwise F1, where a pair
    * is predicted to match when its similarity `s >= t`.
    *
    * One counting pass over the pairs, in row chunks of about equal pair
    * count on the common fork-join pool (`KMeans.parallel`), counts each
    * pair into bucket `#{t : t <= s}`; the pairs at or above a threshold
    * are then a suffix sum, integers whatever the order of addition.
    */
  def tuneThreshold(sample: Vector[Record], sims: (Record, Record) => Double): Double = {
    val t = (1 to 19).map(_ * 0.05).toArray
    val recs = sample.toArray
    val n = recs.length
    // Row i pairs record i with each later one and starts at pair before(i).
    val total = n.toLong * (n - 1) / 2
    def before(i: Int): Long = i.toLong * (2L * n - i - 1) / 2
    val chunks = (0 until n).groupBy(i => before(i) * TuneChunks / math.max(1L, total)).values.toIndexedSeq
    val counts = KMeans.parallel(chunks.map { rows => () =>
      val same = new Array[Int](t.length + 1); val diff = new Array[Int](t.length + 1)
      rows.foreach { i =>
        var j = i + 1
        while (j < n) {
          val s = sims(recs(i), recs(j))
          // A NaN similarity is neither >= t nor < t: it counts nowhere.
          if (!s.isNaN) {
            var b = 0
            while (b < t.length && t(b) <= s) b += 1
            if (recs(i).entityId == recs(j).entityId) same(b) += 1 else diff(b) += 1
          }
          j += 1
        }
      }
      (same, diff)
    })
    val same = new Array[Int](t.length + 1); val diff = new Array[Int](t.length + 1)
    counts.foreach { case (s, d) => for (b <- same.indices) { same(b) += s(b); diff(b) += d(b) } }
    // The pairs with s >= t(k): those counted in a bucket above k.
    def atLeast(c: Array[Int], k: Int): Int = c.iterator.drop(k + 1).sum
    t(t.indices.maxBy { k =>
      val tp = atLeast(same, k)
      val fp = atLeast(diff, k)
      val fn = same.sum - tp
      if (tp == 0) 0.0 else {
        val p = tp.toDouble / (tp + fp); val r = tp.toDouble / (tp + fn)
        2 * p * r / (p + r)
      }
    })
  }

  /** About how many row chunks `tuneThreshold` counts in parallel. */
  private final val TuneChunks = 16L

  /** The labeled validation sample both tunings read: the 600 records
    * with the smallest ids, in id order.
    */
  private def validationSample(ds: Dataset[Record]): Vector[Record] =
    ds.rdd.takeOrdered(600)(Ordering.by[Record, Long](_.id)).toVector

  /** The strategy's similarity over records of `sample`: cosine for LSH,
    * token Jaccard otherwise, with each record's distinct tokens interned
    * once as a sorted array of ids and intersected by the prefix join's
    * `Blocking.jaccard`.
    */
  private def simOf(strategy: Blocking.Strategy, sample: Vector[Record]): (Record, Record) => Double =
    strategy match {
      case Blocking.LSH => (a, b) => a.cos(b)
      case _ =>
        val ids  = mutable.HashMap.empty[String, Int]
        val toks = sample.iterator.map { r =>
          r.id -> Embed.tokens(r.text).distinct.map(t => ids.getOrElseUpdate(t, ids.size)).sorted.toArray
        }.toMap
        (a, b) => Blocking.jaccard(toks(a.id), toks(b.id))
    }

  /** MDG coherence floor: the 5th percentile of same-entity pair
    * similarities on the validation sample. Catches merge-hallucination
    * residue (cross-entity co-clustering) while falsely splitting at
    * most ~5% of genuinely-same-entity placements.
    */
  def tunedFloor(ds: Dataset[Record], strategy: Blocking.Strategy): Double = {
    val sample = validationSample(ds)
    floorOf(sample, simOf(strategy, sample))
  }

  /** The floor of `tunedFloor` on `sample`: the similarities of its
    * same-entity pairs, found entity by entity, sorted, at index
    * 5% of their count; 0.3 when there is no such pair.
    */
  private[core] def floorOf(sample: Vector[Record], sim: (Record, Record) => Double): Double = {
    val sameSims = sample.groupBy(_.entityId).valuesIterator.flatMap { g =>
      for (i <- Iterator.range(0, g.size); j <- Iterator.range(i + 1, g.size)) yield sim(g(i), g(j))
    }.toArray
    java.util.Arrays.sort(sameSims)
    if (sameSims.isEmpty) 0.3
    else sameSims(math.max(0, (0.05 * sameSims.length).toInt))
  }

  /** Generic run: block, then resolve each block with `fn`. */
  def runWith(spark: SparkSession, ds: Dataset[Record], strategy: Blocking.Strategy,
              fn: BlockFn, btOverride: Option[Double] = None): ERResult = {
    val bt = btOverride.getOrElse(tunedThreshold(ds, strategy))
    val blockOf = spark.sparkContext.broadcast(Blocking.block(spark, ds, strategy, bt))
    val results = groupInTask(ds.rdd.map(r => (blockOf.value(r.id), r)))
      .map { case (bid, group) => bid -> fn(bid, group.toVector.sortBy(_.id)) }
      .collect()
      .sortBy(_._1)
      .toVector
      .map(_._2)

    val partition = results.flatMap { res =>
      res.assignment.toSeq.sortBy(_._1).groupBy(_._2).values.map(_.map(_._1).toSet)
    }
    val usage = results.map(_.usage).foldLeft(Usage.zero)(_ + _)
    val maxLv = results.map(_.setsPerLevel.size).maxOption.getOrElse(0)
    val levels = Vector.tabulate(maxLv)(i =>
      results.map(r => if (i < r.setsPerLevel.size) r.setsPerLevel(i) else 0).sum)
    ERResult(partition, usage, levels, results.size)
  }

  /** `pairs` grouped by key, as one RDD shuffle into `defaultParallelism`
    * partitions (one per core; adaptive execution does not coalesce it).
    * The shuffle has no aggregator and no key ordering, so its writer and
    * reader keep no size-tracked map; each reduce task groups its whole
    * partition in a local hash map, in memory, before it hands out the
    * first group. Groups come out in no particular order, their values in
    * arrival order.
    */
  private def groupInTask[K: ClassTag, V: ClassTag](pairs: RDD[(K, V)]): RDD[(K, mutable.ArrayBuffer[V])] =
    pairs.partitionBy(new HashPartitioner(pairs.sparkContext.defaultParallelism)).mapPartitions { it =>
      val groups = mutable.HashMap.empty[K, mutable.ArrayBuffer[V]]
      it.foreach { case (k, v) => groups.getOrElseUpdate(k, mutable.ArrayBuffer.empty[V]) += v }
      groups.iterator
    }
}
