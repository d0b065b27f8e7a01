package repro.core

import org.apache.spark.sql.Dataset
import repro.blocking.Blocking
import repro.embed.Embed

/** The tuning that `LLMCER.tuneThreshold` and `LLMCER.tunedFloor`
  * replaced, kept verbatim (sorted similarity arrays searched per
  * threshold; a loop over every pair for the floor; Jaccard by a merge of
  * sorted token ids) as the reference `TuneSpec` holds them to: the same
  * threshold and floor, bit for bit.
  */
object TuneReference {

  /** Tune the similarity threshold bt on a labeled validation sample
    * (§5.1's 0.05..0.95 sweep) by maximising pairwise F1, where a pair
    * is predicted to match when its similarity `s >= t`.
    */
  def tuneThreshold(sample: Vector[Record], sims: (Record, Record) => Double): Double = {
    val same = Array.newBuilder[Double]; val diff = Array.newBuilder[Double]
    for (i <- sample.indices; j <- i + 1 until sample.size) {
      val s = sims(sample(i), sample(j))
      // A NaN similarity is neither >= t nor < t: it counts nowhere.
      if (!s.isNaN) { if (sample(i).entityId == sample(j).entityId) same += s else diff += s }
    }
    val sameSims = same.result(); val diffSims = diff.result()
    java.util.Arrays.sort(sameSims); java.util.Arrays.sort(diffSims)
    val thresholds = (1 to 19).map(_ * 0.05)
    thresholds.maxBy { t =>
      val tp = atLeast(sameSims, t)
      val fp = atLeast(diffSims, t)
      val fn = sameSims.length - tp
      if (tp == 0) 0.0 else {
        val p = tp.toDouble / (tp + fp); val r = tp.toDouble / (tp + fn)
        2 * p * r / (p + r)
      }
    }
  }

  /** How many of the ascending `sorted` are `>= t`. */
  private def atLeast(sorted: Array[Double], t: Double): Int = {
    var lo = 0; var hi = sorted.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (sorted(mid) < t) lo = mid + 1 else hi = mid
    }
    sorted.length - lo
  }

  /** The body of the old `tunedFloor` after its sample and similarity. */
  def floor(sample: Vector[Record], sim: (Record, Record) => Double): Double = {
    val sameSims = (for {
      i <- sample.indices; j <- i + 1 until sample.size
      if sample(i).entityId == sample(j).entityId
    } yield sim(sample(i), sample(j))).sorted
    if (sameSims.isEmpty) 0.3
    else sameSims(math.max(0, (0.05 * sameSims.size).toInt))
  }

  def tunedThreshold(ds: Dataset[Record], strategy: Blocking.Strategy): Double = {
    val sample = validationSample(ds)
    tuneThreshold(sample, simOf(strategy, sample))
  }

  def tunedFloor(ds: Dataset[Record], strategy: Blocking.Strategy): Double = {
    val sample = validationSample(ds)
    floor(sample, simOf(strategy, sample))
  }

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
}
