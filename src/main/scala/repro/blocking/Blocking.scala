package repro.blocking

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import scala.collection.mutable
import scala.reflect.ClassTag
import repro.core.{Record, UnionFind}
import repro.embed.Embed

/** Filtering / blocking strategies of §5.1, as Spark dataflow.
  *
  * Each strategy produces scored candidate record pairs in Spark (the
  * data-heavy part) in one RDD shuffle into one partition per core: each
  * record goes to a few buckets (LSH band signatures, or prefix tokens
  * for Filter and Canopy), and a bucket task groups its partition's
  * members by bucket in a local hash map, pairs each bucket's members and
  * scores each pair with the data it already holds. Pairs with a
  * similarity below the threshold bt are pruned in that task, the same
  * rule for every strategy, and
  * blocks are the connected components of the surviving edges
  * (transitive block merging). Components are computed with a
  * driver-side union-find over the collected edge list — edge lists are
  * tiny relative to the pair space after pruning.
  */
object Blocking {

  sealed trait Strategy { def name: String }
  case object LSH       extends Strategy { val name = "LSH" }
  case object Filter    extends Strategy { val name = "Filter" }
  case object Canopy    extends Strategy { val name = "Canopy" }
  case object NoBlocking extends Strategy { val name = "NoBlocking" }

  /** LSH banding: `Bands` bands of `Bits` random hyperplanes each, drawn
    * from one generator seeded with `PlaneSeed`.
    */
  private final val Bands = 8
  private final val Bits = 8
  private final val PlaneSeed = 7L

  /** Candidate pairs (id_a < id_b) with cosine similarity, via
    * random-hyperplane LSH banding over the record embeddings: two
    * records are candidates when all `Bits` signs of some band agree.
    */
  def lshCandidates(spark: SparkSession, ds: Dataset[Record]): DataFrame = {
    import spark.implicits._
    lshPairs(spark, ds)(_ => true).toDF("id_a", "id_b", "sim")
  }

  /** The LSH candidates whose cosine passes `keep`, as one bucket shuffle:
    * each record computes its `Bands` signatures once and is sent, with
    * its vector, to the bucket (band, signature) of each band. A bucket
    * task pairs its members and keeps a pair only in the first band where
    * the two signatures agree, so every candidate comes out exactly once,
    * and scores it with `Embed.cosine` on the vectors it already holds.
    */
  private def lshPairs(spark: SparkSession, ds: Dataset[Record])(keep: Double => Boolean): RDD[(Long, Long, Double)] = {
    val dim = Embed.Dim
    // Deterministic hyperplanes: Bands*Bits vectors of N(0,1)-ish values.
    val planes: Array[Array[Float]] = {
      val rnd = new scala.util.Random(PlaneSeed)
      Array.fill(Bands * Bits)(Array.fill(dim)((rnd.nextGaussian()).toFloat))
    }
    val bc = spark.sparkContext.broadcast(planes)
    val members = ds.rdd.flatMap { r =>
      val ps = bc.value
      val sigs = Array.tabulate(Bands) { b =>
        var sig = 0L
        var k = 0
        while (k < Bits) {
          var s = 0.0; var d = 0
          val p = ps(b * Bits + k)
          while (d < dim) { s += p(d) * r.vec(d); d += 1 }
          if (s >= 0) sig |= (1L << k)
          k += 1
        }
        sig
      }
      Iterator.tabulate(Bands)(b => ((b, sigs(b)), (r.id, r.vec, sigs)))
    }
    bucketPairs(members) { (bucket, a, b) =>
      if (firstAgreeingBand(a._3, b._3) != bucket._1) None
      else { val sim = Embed.cosine(a._2, b._2); if (keep(sim)) Some((a._1, b._1, sim)) else None }
    }
  }

  /** The one bucket join behind LSH and the prefix join: `members` are
    * (bucket, member) with the member's id first, grouped by `groupInTask`.
    * A bucket task sorts its members by id and calls `pair` on each
    * (lower id, higher id) pair of them; the pairs leave the task through
    * a lazy iterator.
    */
  private def bucketPairs[K: ClassTag, M <: Product3[Long, _, _]: ClassTag, P: ClassTag](members: RDD[(K, M)])(
      pair: (K, M, M) => Option[P]): RDD[P] =
    groupInTask(members).flatMap { case (bucket, group) =>
      val ms = group.sortBy(_._1)
      for {
        i <- Iterator.range(0, ms.length)
        j <- Iterator.range(i + 1, ms.length)
        p <- pair(bucket, ms(i), ms(j))
      } yield p
    }

  /** `pairs` grouped by key, as one RDD shuffle into `defaultParallelism`
    * partitions (one per core; adaptive execution does not coalesce it).
    * The shuffle has no aggregator and no key ordering, so its writer and
    * reader keep no size-tracked map; each reduce task groups its whole
    * partition, about 1/cores of all pairs, in a local hash map, in
    * memory, before it hands out the first group. Groups come out in no
    * particular order, their values in arrival order. The bucket joins
    * and `LLMCER.runWith`'s resolve stage share it.
    */
  private[repro] def groupInTask[K: ClassTag, V: ClassTag](pairs: RDD[(K, V)]): RDD[(K, mutable.ArrayBuffer[V])] =
    pairs.partitionBy(new HashPartitioner(pairs.sparkContext.defaultParallelism)).mapPartitions { it =>
      val groups = mutable.HashMap.empty[K, mutable.ArrayBuffer[V]]
      it.foreach { case (k, v) => groups.getOrElseUpdate(k, mutable.ArrayBuffer.empty[V]) += v }
      groups.iterator
    }

  /** The first band in which two records' signatures agree. */
  private def firstAgreeingBand(a: Array[Long], b: Array[Long]): Int = {
    var k = 0
    while (a(k) != b(k)) k += 1
    k
  }

  /** Candidate pairs via a prefix-filtering token similarity join
    * [Bayardo et al. 2007], scored with token Jaccard: two records are
    * candidates when they share a token in their prefixes. A record's
    * prefix is the first `n - ceil(bt*n) + 1` of its `n` distinct tokens
    * in the global (document frequency, token) order, so no pair with
    * Jaccard >= bt is missed.
    */
  def filterCandidates(spark: SparkSession, ds: Dataset[Record], bt: Double): DataFrame = {
    import spark.implicits._
    filterPairs(spark, ds, bt)(_ => true).toDF("id_a", "id_b", "sim")
  }

  /** The Filter candidates at `bt` whose Jaccard passes `keep`. */
  private def filterPairs(spark: SparkSession, ds: Dataset[Record], bt: Double)(
      keep: Double => Boolean): RDD[(Long, Long, Double)] = {
    // The key is the whole token set, so the key and full scores are equal.
    val sets = ds.rdd.map { r => val toks = Embed.tokens(r.text).distinct; (r.id, toks, toks) }
    prefixJoin(spark, sets, bt)((sim, _) => keep(sim)).map { case (a, b, sim, _) => (a, b, sim) }
  }

  /** Canopy blocking [McCallum et al.]: a cheap first-attribute token
    * overlap forms canopies (loose threshold ms); a canopy member's `sim`
    * is the larger of the cheap and a refined all-attribute Jaccard, and
    * `block` links it by the one rule of every strategy, `sim >= bt`.
    * Canopy members are found with the prefix join at `ms`, which finds
    * every pair whose cheap Jaccard is at least `ms`.
    */
  def canopyCandidates(spark: SparkSession, ds: Dataset[Record], ms: Double): DataFrame = {
    import spark.implicits._
    canopyPairs(spark, ds, ms)(_ => true).toDF("id_a", "id_b", "sim", "cheap")
  }

  /** The canopy members at `ms` (cheap Jaccard above `ms`) whose `sim`
    * passes `keep`, as (id_a, id_b, sim, cheap).
    */
  private def canopyPairs(spark: SparkSession, ds: Dataset[Record], ms: Double)(
      keep: Double => Boolean): RDD[(Long, Long, Double, Double)] = {
    // Cheap metric: Jaccard over the first attribute's tokens only;
    // refined: over the whole text's.
    val sets = ds.rdd.map { r =>
      (r.id, Embed.tokens(r.text.takeWhile(_ != '|')).distinct, Embed.tokens(r.text).distinct)
    }
    prefixJoin(spark, sets, ms)((cheap, refined) => cheap > ms && keep(math.max(cheap, refined)))
      .map { case (a, b, cheap, refined) => (a, b, math.max(cheap, refined), cheap) }
  }

  /** Prefix-filtering set-similarity self-join, as one bucket shuffle
    * [Vernica, Carey & Li 2010]. `sets` holds each record's id, its key
    * tokens and its full tokens, each distinct, with the key tokens a
    * subset of the full ones. Tokens are ranked once by (document
    * frequency over the full tokens, token), a total order whatever the
    * partitioning. Each record takes the first `n - ceil(t*n) + 1` of its
    * `n` ranked key tokens as its prefix and is sent to one bucket per
    * prefix token. A bucket task pairs its members and keeps a pair only
    * in the bucket of the first prefix token the two share, so every pair
    * sharing a prefix token comes out exactly once, with the Jaccard of
    * its key sets and of its full sets, if those pass `keep`.
    */
  private def prefixJoin(spark: SparkSession, sets: RDD[(Long, Vector[String], Vector[String])], t: Double)(
      keep: (Double, Double) => Boolean): RDD[(Long, Long, Double, Double)] = {
    // Document frequencies, counted per partition and summed on the driver.
    val dfs = sets.mapPartitions { it =>
      val c = scala.collection.mutable.HashMap.empty[String, Long]
      it.foreach(_._3.foreach(tok => c(tok) = c.getOrElse(tok, 0L) + 1))
      c.iterator
    }.collect().groupMapReduce(_._1)(_._2)(_ + _)
    // Global token order — rare tokens first gives small prefixes.
    val rank = dfs.toArray.sortBy { case (tok, df) => (df, tok) }.iterator.map(_._1).zipWithIndex.toMap
    val bc = spark.sparkContext.broadcast(rank)
    val members = sets.flatMap { case (id, key, full) =>
      val r = bc.value
      val k = key.map(r).toArray.sorted
      val n = k.length
      // Prefix size |x| - ceil(t*|x|) + 1 guarantees no Jaccard>=t pair is missed.
      val p = math.max(0L, math.min(n.toLong, n - math.ceil(t * n).toLong + 1)).toInt
      val f = full.map(r).toArray.sorted
      Iterator.range(0, p).map(i => (k(i), (id, k, f)))
    }
    bucketPairs(members) { (tok, a, b) =>
      if (firstShared(a._2, b._2) != tok) None
      else {
        val key = jaccard(a._2, b._2); val full = jaccard(a._3, b._3)
        if (keep(key, full)) Some((a._1, b._1, key, full)) else None
      }
    }
  }

  /** The smallest value in both sorted `a` and sorted `b`; the caller
    * knows there is one. When the two share a prefix token, it is their
    * first shared prefix token, since prefixes are the smallest ranks.
    */
  private def firstShared(a: Array[Int], b: Array[Int]): Int = {
    var i = 0; var j = 0
    while (a(i) != b(j)) { if (a(i) < b(j)) i += 1 else j += 1 }
    a(i)
  }

  /** `Embed.jaccard` of two sets given as sorted distinct arrays: the same
    * arithmetic, and 1 for two empty sets.
    */
  private[repro] def jaccard(a: Array[Int], b: Array[Int]): Double = {
    if (a.length == 0 && b.length == 0) return 1.0
    var i = 0; var j = 0; var inter = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { inter += 1; i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    inter.toDouble / (a.length + b.length - inter)
  }

  /** Default cap on block size: transitive closure over low-threshold
    * edges can chain entire noisy datasets into one mega-block, which
    * defeats blocking's purpose (and the O(n^2) per-block phases).
    */
  val MaxBlockSize = 60

  /** Blocks = size-capped connected components of threshold-surviving
    * candidate edges. Edges are processed in descending similarity and a
    * union is applied only while the merged block stays within `cap`, so
    * the strongest links bind first and chains are cut at the weakest
    * links. Returns recordId -> blockId (unmatched records get their own
    * singleton block).
    */
  def componentsCapped(allIds: Seq[Long], edges: Seq[(Long, Long, Double)],
                       cap: Int = MaxBlockSize): Map[Long, Long] = {
    val uf   = new UnionFind(allIds)
    val size = scala.collection.mutable.Map.empty[Long, Int]
    allIds.foreach(id => size(id) = 1)
    edges.sortBy { case (a, b, sim) => (-sim, a, b) }.foreach { case (a, b, _) =>
      val ra = uf.find(a); val rb = uf.find(b)
      if (ra != rb && size(ra) + size(rb) <= cap) {
        uf.union(a, b)
        val r = uf.find(a)
        size(r) = size(ra) + size(rb)
      }
    }
    // Canonical block id: smallest record id of the component.
    val rootMin = allIds.groupBy(uf.find).map { case (r, ids) => r -> ids.min }
    allIds.map(id => id -> rootMin(uf.find(id))).toMap
  }

  /** End-to-end blocking: record id -> block id, as a function of the id
    * (NoBlocking: 0 for every record, with no Spark job). Otherwise the
    * blocks are `componentsCapped` over the ids that appear in an edge;
    * a record with no edge is its own block, keyed by its id, which is
    * the block id `componentsCapped` over all ids gives it too.
    *
    * Every strategy links two records when `sim >= bt`. The threshold is
    * applied in the bucket task, so pruned pairs never leave it.
    * Similarities are cosines of finite floats or Jaccards in [0, 1],
    * never NaN, so this Scala comparison keeps exactly the rows the same
    * SQL `>=` filter on the public candidate DataFrames keeps.
    */
  def block(spark: SparkSession, ds: Dataset[Record], strategy: Strategy, bt: Double): Long => Long =
    strategy match {
      case NoBlocking => _ => 0L
      case _ =>
        val es = edges(spark, ds, strategy, bt)
        val linked = es.iterator.flatMap { case (a, b, _) => Iterator(a, b) }.distinct.toVector
        val blockOf = componentsCapped(linked, es)
        id => blockOf.getOrElse(id, id)
    }

  /** The scored pairs `block` links records with, as (id_a, id_b, sim). */
  private[blocking] def edges(spark: SparkSession, ds: Dataset[Record], strategy: Strategy,
                              bt: Double): Seq[(Long, Long, Double)] = strategy match {
    case NoBlocking => Seq.empty
    case LSH        => lshPairs(spark, ds)(_ >= bt).collect().toSeq
    case Filter     => filterPairs(spark, ds, bt)(_ >= bt).collect().toSeq
    case Canopy     =>
      canopyPairs(spark, ds, ms = math.max(0.05, bt - 0.15))(_ >= bt)
        .map { case (a, b, sim, _) => (a, b, sim) }.collect().toSeq
  }

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
}
