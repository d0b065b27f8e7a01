package repro.blocking

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Record, UnionFind}
import repro.embed.Embed

/** Filtering / blocking strategies of §5.1, as Spark dataflow.
  *
  * Each strategy produces scored candidate record pairs in Spark (the
  * data-heavy part): LSH scores each pair inside its bucket task, while
  * Filter and Canopy self-join on tokens and join the pairs back to
  * their texts. Pairs below a similarity threshold are pruned, and
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

  /** Candidate pairs (id_a < id_b) with cosine similarity, via
    * random-hyperplane LSH banding over the record embeddings: two
    * records are candidates when all `bits` signs of some band agree.
    *
    * One shuffle: each record computes its `bands` signatures once and
    * is sent, with its vector, to the bucket (band, signature) of each
    * band. A bucket task pairs its members and keeps a pair only in the
    * first band where the two signatures agree, so every candidate comes
    * out exactly once, and scores it with `Embed.cosine` on the vectors
    * it already holds. Pairs leave the task through a lazy iterator;
    * the task holds only its bucket's members.
    */
  def lshCandidates(spark: SparkSession, ds: Dataset[Record],
                    bands: Int = 8, bits: Int = 8, seed: Long = 7L): DataFrame = {
    import spark.implicits._
    val dim = Embed.Dim
    // Deterministic hyperplanes: bands*bits vectors of N(0,1)-ish values.
    val planes: Array[Array[Float]] = {
      val rnd = new scala.util.Random(seed)
      Array.fill(bands * bits)(Array.fill(dim)((rnd.nextGaussian()).toFloat))
    }
    val bc = spark.sparkContext.broadcast(planes)
    val members = ds.flatMap { r =>
      val ps = bc.value
      val sigs = Array.tabulate(bands) { b =>
        var sig = 0L
        var k = 0
        while (k < bits) {
          var s = 0.0; var d = 0
          val p = ps(b * bits + k)
          while (d < dim) { s += p(d) * r.vec(d); d += 1 }
          if (s >= 0) sig |= (1L << k)
          k += 1
        }
        sig
      }
      Iterator.tabulate(bands)(b => (b, sigs(b), r.id, r.vec, sigs))
    }
    members.groupByKey(m => (m._1, m._2)).flatMapGroups { (bucket, it) =>
      val band = bucket._1
      val ms   = it.toArray.sortBy(_._3)
      for {
        i <- Iterator.range(0, ms.length)
        j <- Iterator.range(i + 1, ms.length)
        if firstAgreeingBand(ms(i)._5, ms(j)._5) == band
      } yield (ms(i)._3, ms(j)._3, Embed.cosine(ms(i)._4, ms(j)._4))
    }.toDF("id_a", "id_b", "sim")
  }

  /** The first band in which two records' signatures agree. */
  private def firstAgreeingBand(a: Array[Long], b: Array[Long]): Int = {
    var k = 0
    while (a(k) != b(k)) k += 1
    k
  }

  /** Candidate pairs via prefix-filtered token similarity join (the
    * positional-filtering flavour of §5.1), scored with token Jaccard.
    */
  def filterCandidates(spark: SparkSession, ds: Dataset[Record], bt: Double): DataFrame = {
    import spark.implicits._
    val toks = ds.flatMap(r => Embed.tokens(r.text).distinct.map(t => (r.id, t)))
      .toDF("id", "tok")
    // Global token frequency — rare tokens first gives small prefixes.
    val freq = toks.groupBy("tok").agg(count(lit(1)).as("df"))
    val ranked = toks.join(freq, "tok")
      .withColumn("rank", row_number().over(
        org.apache.spark.sql.expressions.Window.partitionBy("id").orderBy(col("df"), col("tok"))))
    val sizes = toks.groupBy("id").agg(count(lit(1)).as("ntok"))
    // Prefix size |x| - ceil(bt*|x|) + 1 guarantees no Jaccard>=bt pair is missed.
    val prefix = ranked.join(sizes, "id")
      .where(col("rank") <= col("ntok") - ceil(lit(bt) * col("ntok")) + 1)
      .select("id", "tok")
    val a = prefix.as("a"); val b = prefix.as("b")
    val cand = a.join(b, col("a.tok") === col("b.tok") && col("a.id") < col("b.id"))
      .select(col("a.id").as("id_a"), col("b.id").as("id_b")).distinct()
    val texts = ds.map(r => (r.id, r.text)).toDF("tid", "text")
    val jacUdf = udf { (x: String, y: String) => Embed.jaccard(x, y) }
    cand
      .join(texts, col("id_a") === col("tid")).withColumnRenamed("text", "text_a").drop("tid")
      .join(texts, col("id_b") === col("tid")).withColumnRenamed("text", "text_b").drop("tid")
      .withColumn("sim", jacUdf(col("text_a"), col("text_b")))
      .select("id_a", "id_b", "sim")
  }

  /** Canopy blocking [McCallum et al.]: a cheap first-attribute token
    * overlap forms canopies (loose threshold ms) and tight blocks
    * (bs >= ms); within canopies a refined all-attribute Jaccard decides
    * matches which then merge blocks transitively.
    */
  def canopyCandidates(spark: SparkSession, ds: Dataset[Record],
                       bs: Double, ms: Double): DataFrame = {
    import spark.implicits._
    require(bs >= ms, s"canopy needs bs >= ms, got $bs < $ms")
    // Cheap metric: Jaccard over the first attribute's tokens only.
    val firstAttr = ds.map { r =>
      val first = r.text.split('|').head
      (r.id, Embed.tokens(first).distinct, r.text)
    }.toDF("id", "toks", "text")
    val expl = firstAttr.select(col("id"), explode(col("toks")).as("tok"))
    val a = expl.as("a"); val b = expl.as("b")
    val cand = a.join(b, col("a.tok") === col("b.tok") && col("a.id") < col("b.id"))
      .select(col("a.id").as("id_a"), col("b.id").as("id_b")).distinct()
    val jacUdf  = udf { (x: Seq[String], y: Seq[String]) => Embed.jaccard(x.toSet, y.toSet) }
    val fullJac = udf { (x: String, y: String) => Embed.jaccard(x, y) }
    val scored = cand
      .join(firstAttr.select(col("id").as("ia"), col("toks").as("toks_a"), col("text").as("text_a")), col("id_a") === col("ia"))
      .join(firstAttr.select(col("id").as("ib"), col("toks").as("toks_b"), col("text").as("text_b")), col("id_b") === col("ib"))
      .withColumn("cheap", jacUdf(col("toks_a"), col("toks_b")))
      .where(col("cheap") > ms) // canopy membership
      .withColumn("refined", fullJac(col("text_a"), col("text_b")))
      // An edge if tight-cheap OR refined match within the canopy.
      .withColumn("sim", greatest(col("cheap"), col("refined")))
      .select("id_a", "id_b", "sim", "cheap")
    scored
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
  def components(allIds: Seq[Long], edges: Seq[(Long, Long)]): Map[Long, Long] =
    componentsCapped(allIds, edges.map { case (a, b) => (a, b, 1.0) }, Int.MaxValue)

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

  /** End-to-end blocking: Dataset[Record] -> DataFrame(id, block_id). */
  def block(spark: SparkSession, ds: Dataset[Record], strategy: Strategy,
            bt: Double): DataFrame = {
    import spark.implicits._
    val ids = ds.map(_.id).collect().toSeq
    val edges: Seq[(Long, Long, Double)] = strategy match {
      case NoBlocking => Seq.empty // handled below: all in one block
      case LSH =>
        lshCandidates(spark, ds).where(col("sim") >= bt)
          .select("id_a", "id_b", "sim").as[(Long, Long, Double)].collect().toSeq
      case Filter =>
        filterCandidates(spark, ds, bt).where(col("sim") >= bt)
          .select("id_a", "id_b", "sim").as[(Long, Long, Double)].collect().toSeq
      case Canopy =>
        canopyCandidates(spark, ds, bs = math.min(0.95, bt + 0.15), ms = math.max(0.05, bt - 0.15))
          .where(col("cheap") >= math.min(0.95, bt + 0.15) || col("sim") >= bt)
          .select("id_a", "id_b", "sim").as[(Long, Long, Double)].collect().toSeq
    }
    val assignment = strategy match {
      case NoBlocking => ids.map(_ -> 0L).toMap
      case _          => componentsCapped(ids, edges)
    }
    spark.createDataset(assignment.toSeq).toDF("id", "block_id")
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
