package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
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
  * broadcast; one RDD shuffle (`Blocking.groupInTask`) groups records by
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
    Blocking.tuneThreshold(sample, simOf(strategy, sample))
  }

  /** The labeled validation sample both tunings read: the 600 records
    * with the smallest ids, in id order.
    */
  private def validationSample(ds: Dataset[Record]): Vector[Record] =
    ds.rdd.takeOrdered(600)(Ordering.by[Record, Long](_.id)).toVector

  /** The strategy's similarity over records of `sample`: cosine for LSH,
    * token Jaccard otherwise, with each record's distinct tokens interned
    * once as a sorted array of ids.
    */
  private def simOf(strategy: Blocking.Strategy, sample: Vector[Record]): (Record, Record) => Double =
    strategy match {
      case Blocking.LSH => (a, b) => a.cos(b)
      case _ =>
        val ids  = scala.collection.mutable.HashMap.empty[String, Int]
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
    val sim = simOf(strategy, sample)
    val sameSims = (for {
      i <- sample.indices; j <- i + 1 until sample.size
      if sample(i).entityId == sample(j).entityId
    } yield sim(sample(i), sample(j))).sorted
    if (sameSims.isEmpty) 0.3
    else sameSims(math.max(0, (0.05 * sameSims.size).toInt))
  }

  /** Generic run: block, then resolve each block with `fn`. */
  def runWith(spark: SparkSession, ds: Dataset[Record], strategy: Blocking.Strategy,
              fn: BlockFn, btOverride: Option[Double] = None): ERResult = {
    val bt = btOverride.getOrElse(tunedThreshold(ds, strategy))
    val blockOf = spark.sparkContext.broadcast(Blocking.block(spark, ds, strategy, bt))
    val results = Blocking.groupInTask(ds.rdd.map(r => (blockOf.value(r.id), r)))
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
}
