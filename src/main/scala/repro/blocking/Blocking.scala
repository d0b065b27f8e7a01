package repro.blocking

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import scala.collection.mutable.ArrayBuilder
import repro.core.{Record, UnionFind}
import repro.embed.Embed

/** Filtering / blocking strategies of §5.1, as Spark dataflow.
  *
  * Each strategy produces scored candidate record pairs in Spark (the
  * data-heavy part) in one RDD shuffle into one partition per core: each
  * record goes to a few buckets (LSH band signatures, or prefix tokens
  * for Filter and Canopy). A map task packs what it sends each reduce
  * partition into one batch of primitive arrays, each record once; a
  * bucket task orders its members by (bucket, id), pairs each bucket's
  * members and scores each pair with the data it already holds. Pairs
  * with a similarity below the threshold bt are pruned in that task, the
  * same rule for every strategy, and the task returns the rest as one
  * packed `Edges` batch. Blocks are the connected components of the
  * surviving edges (transitive block merging), computed with a
  * driver-side union-find over the collected edges — edge lists are tiny
  * relative to the pair space after pruning.
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
    lshPairs(spark, ds, spark.sparkContext.defaultParallelism)(_ => true).flatMap(_.iterator)
      .toDF("id_a", "id_b", "sim")
  }

  /** LSH records packed for the bucket join: component d of record i's
    * vector at `vecs(i * Embed.Dim + d)`, its band-k signature at
    * `sigs(i * Bands + k)`.
    */
  private final class Vecs(val vecs: Array[Float], val sigs: Array[Long]) extends Serializable

  /** The LSH candidates whose cosine passes `keep`, as one bucket join
    * into `reducers` partitions: each record computes its `Bands`
    * signatures once and is sent, with its vector and signatures, to the
    * bucket (band, signature) of each band. A bucket task keeps a pair
    * only in the first band where the two signatures agree, so every
    * candidate comes out exactly once, and scores it with the
    * `Embed.cosine` arithmetic on the vectors it already holds.
    */
  private def lshPairs(spark: SparkSession, ds: Dataset[Record], reducers: Int)(keep: Double => Boolean): RDD[Edges] = {
    val dim = Embed.Dim
    // Deterministic hyperplanes: Bands*Bits vectors of N(0,1)-ish values.
    val planes: Array[Array[Float]] = {
      val rnd = new scala.util.Random(PlaneSeed)
      Array.fill(Bands * Bits)(Array.fill(dim)((rnd.nextGaussian()).toFloat))
    }
    val bc = spark.sparkContext.broadcast(planes)
    val batches = ds.rdd.mapPartitions { it =>
      val out  = new Batches(reducers)
      val vecs = Array.fill(reducers)(new ArrayBuilder.ofFloat)
      val sigs = Array.fill(reducers)(new ArrayBuilder.ofLong)
      it.foreach { r =>
        require(r.vec.length == dim, s"record ${r.id}: vector of ${r.vec.length} components, not $dim")
        val ps = bc.value
        val s = Array.tabulate(Bands) { b =>
          var sig = 0L
          var k = 0
          while (k < Bits) {
            var dot = 0.0; var d = 0
            val p = ps(b * Bits + k)
            while (d < dim) { dot += p(d) * r.vec(d); d += 1 }
            if (dot >= 0) sig |= (1L << k)
            k += 1
          }
          sig
        }
        var b = 0
        while (b < Bands) {
          // Routed by the (band, signature) pair; the bucket packs it in one Long.
          val p = out.reducer((b, s(b)))
          if (out.add(p, (b.toLong << Bits) | s(b), r.id)) { vecs(p).addAll(r.vec); sigs(p).addAll(s) }
          b += 1
        }
      }
      out.result(p => new Vecs(vecs(p).result(), sigs(p).result()))
    }
    bucketJoin(batches, reducers)(vs => new Vecs(Array.concat(vs.map(_.vecs): _*), Array.concat(vs.map(_.sigs): _*)))
      .map { g =>
        val vecs = g.recs.vecs; val sigs = g.recs.sigs
        val out = new EdgeBuilder
        g.foreachPair { (bucket, x, y) =>
          if (firstAgreeingBand(sigs, x, y) == bucket >>> Bits) {
            var sim = 0.0; var d = 0
            val i = x * dim; val j = y * dim
            while (d < dim) { sim += vecs(i + d) * vecs(j + d); d += 1 }
            if (keep(sim)) out.add(g.ids(x), g.ids(y), sim)
          }
        }
        out.result()
      }
  }

  /** What one map task sends one reduce partition of a bucket join.
    * Member m is in bucket `bucket(m)` and is record `rec(m)` of the
    * batch, whose id is `ids(rec(m))` and whose strategy data is in
    * `recs`; a record with several buckets there is packed once.
    */
  private final class Batch[R](val bucket: Array[Long], val rec: Array[Int], val ids: Array[Long], val recs: R)
      extends Serializable

  /** Builds the batches one map task sends, one per reduce partition
    * that gets a member, member by member: a record's members are added
    * one after another.
    */
  private final class Batches(reducers: Int) {
    private val part   = new HashPartitioner(reducers)
    private val bucket = Array.fill(reducers)(new ArrayBuilder.ofLong)
    private val rec    = Array.fill(reducers)(new ArrayBuilder.ofInt)
    private val ids    = Array.fill(reducers)(new ArrayBuilder.ofLong)
    private val count  = new Array[Int](reducers)
    private val lastId = new Array[Long](reducers)

    /** The reduce partition of a bucket key. */
    def reducer(key: Any): Int = part.getPartition(key)

    /** Adds member (bucket, id) to reduce partition `p`'s batch; true
      * when its record is new there, and the caller must pack its data.
      */
    def add(p: Int, b: Long, id: Long): Boolean = {
      val fresh = count(p) == 0 || lastId(p) != id
      if (fresh) { ids(p) += id; lastId(p) = id; count(p) += 1 }
      bucket(p) += b; rec(p) += count(p) - 1
      fresh
    }

    /** The batches, keyed by reduce partition; `recs(p)` packs the data of
      * partition p's records in the order they were added.
      */
    def result[R](recs: Int => R): Iterator[(Int, Batch[R])] =
      Iterator.range(0, reducers).filter(count(_) > 0)
        .map(p => (p, new Batch(bucket(p).result(), rec(p).result(), ids(p).result(), recs(p))))
  }

  /** A bucket task's members, merged from the batches sent to it. */
  private final class Buckets[R](bucket: Array[Long], rec: Array[Int], val ids: Array[Long], val recs: R) {
    /** Calls `f(bucket, x, y)` on each pair of records x, y that share a
      * bucket, with `ids(x) < ids(y)`: bucket by bucket, in (bucket, id)
      * order.
      */
    def foreachPair(f: PairFn): Unit = {
      val order = sortedIndices(bucket.length) { (m, n) =>
        val c = java.lang.Long.compare(bucket(m), bucket(n))
        if (c != 0) c else java.lang.Long.compare(ids(rec(m)), ids(rec(n)))
      }
      var lo = 0
      while (lo < order.length) {
        val b = bucket(order(lo))
        var hi = lo + 1
        while (hi < order.length && bucket(order(hi)) == b) hi += 1
        var i = lo
        while (i < hi) {
          var j = i + 1
          while (j < hi) { f(b, rec(order(i)), rec(order(j))); j += 1 }
          i += 1
        }
        lo = hi
      }
    }
  }

  /** A pairing function over a bucket's records, with no boxing. */
  private trait PairFn { def apply(bucket: Long, x: Int, y: Int): Unit }

  /** The one bucket join behind LSH and the prefix join: `batches` are
    * what each map task sends each of `reducers` reduce partitions, keyed
    * by the partition's index, through one shuffle with no aggregator and
    * no key ordering. A reduce task concatenates its batches (`concat`
    * merges their records' data in the same order) and hands them on as
    * one `Buckets`, which the caller pairs and scores in the same task.
    */
  private def bucketJoin[R](batches: RDD[(Int, Batch[R])], reducers: Int)(concat: Seq[R] => R): RDD[Buckets[R]] =
    batches.partitionBy(new HashPartitioner(reducers)).mapPartitions { it =>
      val bs = it.map(_._2).toVector
      // Batch k's records start at first(k) in the merged arrays.
      val first = bs.scanLeft(0)(_ + _.ids.length)
      val rec = Array.concat(bs.indices.map(k => bs(k).rec.map(_ + first(k))): _*)
      Iterator.single(new Buckets(Array.concat(bs.map(_.bucket): _*), rec, Array.concat(bs.map(_.ids): _*),
                                  concat(bs.map(_.recs))))
    }

  /** The indices `0 until n` ordered by `cmp`: a stable bottom-up merge
    * sort over primitive ints.
    */
  private def sortedIndices(n: Int)(cmp: (Int, Int) => Int): Array[Int] = {
    var src = Array.range(0, n)
    var dst = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n); val hi = math.min(lo + 2 * width, n)
        var i = lo; var j = mid; var k = lo
        while (k < hi) {
          if (j >= hi || (i < mid && cmp(src(i), src(j)) <= 0)) { dst(k) = src(i); i += 1 }
          else { dst(k) = src(j); j += 1 }
          k += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      width *= 2
    }
    src
  }

  /** The first band in which the signatures of packed records x and y agree. */
  private def firstAgreeingBand(sigs: Array[Long], x: Int, y: Int): Int = {
    var k = 0
    while (sigs(x * Bands + k) != sigs(y * Bands + k)) k += 1
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
    filterPairs(spark, ds, bt, spark.sparkContext.defaultParallelism)(_ => true).flatMap(_.iterator)
      .toDF("id_a", "id_b", "sim")
  }

  /** The Filter candidates at `bt` whose Jaccard passes `keep`. */
  private def filterPairs(spark: SparkSession, ds: Dataset[Record], bt: Double, reducers: Int)(
      keep: Double => Boolean): RDD[Edges] = {
    // The key is the whole token set, so the key and full scores are equal.
    val sets = ds.rdd.map { r => val toks = Embed.tokens(r.text).distinct; (r.id, toks, toks) }
    prefixJoin(spark, sets, bt, reducers)((sim, _) => keep(sim)).map(_._1)
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
    canopyPairs(spark, ds, ms, spark.sparkContext.defaultParallelism)(_ => true)
      .flatMap { case (e, cheap) => Iterator.range(0, e.length).map(k => (e.a(k), e.b(k), e.sim(k), cheap(k))) }
      .toDF("id_a", "id_b", "sim", "cheap")
  }

  /** The canopy members at `ms` (cheap Jaccard above `ms`) whose `sim`
    * passes `keep`, as edges scored with `sim` and their cheap Jaccards.
    */
  private def canopyPairs(spark: SparkSession, ds: Dataset[Record], ms: Double, reducers: Int)(
      keep: Double => Boolean): RDD[(Edges, Array[Double])] = {
    // Cheap metric: Jaccard over the first attribute's tokens only;
    // refined: over the whole text's.
    val sets = ds.rdd.map { r =>
      (r.id, Embed.tokens(r.text.takeWhile(_ != '|')).distinct, Embed.tokens(r.text).distinct)
    }
    prefixJoin(spark, sets, ms, reducers)((cheap, refined) => cheap > ms && keep(math.max(cheap, refined)))
      .map { case (e, refined) =>
        (new Edges(e.a, e.b, Array.tabulate(e.length)(k => math.max(e.sim(k), refined(k)))), e.sim)
      }
  }

  /** Rows of ints packed end to end: row i has `len(i)` ints, from
    * `start(i)` in `flat`.
    */
  private final class Ragged(val len: Array[Int], val flat: Array[Int]) extends Serializable {
    @transient lazy val start: Array[Int] = len.scanLeft(0)(_ + _)
  }
  private object Ragged {
    def concat(rs: Seq[Ragged]): Ragged =
      new Ragged(Array.concat(rs.map(_.len): _*), Array.concat(rs.map(_.flat): _*))
  }
  private final class RaggedBuilder {
    private val len = new ArrayBuilder.ofInt; private val flat = new ArrayBuilder.ofInt
    def add(row: Array[Int]): Unit = { len += row.length; flat.addAll(row) }
    def result(): Ragged = new Ragged(len.result(), flat.result())
  }

  /** Prefix-join records packed for the bucket join: record i's sorted
    * key token ranks are row i of `key`, its full ones row i of `full`.
    */
  private final class TokenSets(val key: Ragged, val full: Ragged) extends Serializable

  /** Prefix-filtering set-similarity self-join, as one bucket join into
    * `reducers` partitions [Vernica, Carey & Li 2010]. `sets` holds each
    * record's id, its key tokens and its full tokens, each distinct, with
    * the key tokens a subset of the full ones. Tokens are ranked once by
    * (document frequency over the full tokens, token), a total order
    * whatever the partitioning. Each record takes the first
    * `n - ceil(t*n) + 1` of its `n` ranked key tokens as its prefix and is
    * sent, with its ranked key and full tokens, to one bucket per prefix
    * token. A bucket task keeps a pair only in the bucket of the first
    * prefix token the two share, so every pair sharing a prefix token
    * comes out exactly once, if the Jaccards of its key sets and of its
    * full sets pass `keep`: as edges scored with the key Jaccard, and the
    * full Jaccards in the same order.
    */
  private def prefixJoin(spark: SparkSession, sets: RDD[(Long, Vector[String], Vector[String])], t: Double,
                         reducers: Int)(keep: (Double, Double) => Boolean): RDD[(Edges, Array[Double])] = {
    // Document frequencies, counted per partition and summed on the driver.
    val dfs = sets.mapPartitions { it =>
      val c = scala.collection.mutable.HashMap.empty[String, Long]
      it.foreach(_._3.foreach(tok => c(tok) = c.getOrElse(tok, 0L) + 1))
      c.iterator
    }.collect().groupMapReduce(_._1)(_._2)(_ + _)
    // Global token order — rare tokens first gives small prefixes.
    val rank = dfs.toArray.sortBy { case (tok, df) => (df, tok) }.iterator.map(_._1).zipWithIndex.toMap
    val bc = spark.sparkContext.broadcast(rank)
    val batches = sets.mapPartitions { it =>
      val out  = new Batches(reducers)
      val keys = Array.fill(reducers)(new RaggedBuilder)
      val fulls = Array.fill(reducers)(new RaggedBuilder)
      it.foreach { case (id, key, full) =>
        val r = bc.value
        val k = key.map(r).toArray.sorted
        val n = k.length
        // Prefix size |x| - ceil(t*|x|) + 1 guarantees no Jaccard>=t pair is missed.
        val p = math.max(0L, math.min(n.toLong, n - math.ceil(t * n).toLong + 1)).toInt
        val f = full.map(r).toArray.sorted
        for (i <- 0 until p) {
          val q = out.reducer(k(i))
          if (out.add(q, k(i), id)) { keys(q).add(k); fulls(q).add(f) }
        }
      }
      out.result(q => new TokenSets(keys(q).result(), fulls(q).result()))
    }
    bucketJoin(batches, reducers)(ts => new TokenSets(Ragged.concat(ts.map(_.key)), Ragged.concat(ts.map(_.full))))
      .map { g =>
        val key = g.recs.key; val full = g.recs.full
        val out = new EdgeBuilder; val fullSims = new ArrayBuilder.ofDouble
        g.foreachPair { (tok, x, y) =>
          if (firstShared(key, x, y) == tok) {
            val k = jaccard(key, x, y); val f = jaccard(full, x, y)
            if (keep(k, f)) { out.add(g.ids(x), g.ids(y), k); fullSims += f }
          }
        }
        (out.result(), fullSims.result())
      }
  }

  /** The smallest value in both sorted rows x and y of `sets`; the caller
    * knows there is one. When the two share a prefix token, it is their
    * first shared prefix token, since prefixes are the smallest ranks.
    */
  private def firstShared(sets: Ragged, x: Int, y: Int): Int = {
    val a = sets.flat
    var i = sets.start(x); var j = sets.start(y)
    while (a(i) != a(j)) { if (a(i) < a(j)) i += 1 else j += 1 }
    a(i)
  }

  /** `jaccard` of the sorted distinct rows x and y of `sets`. */
  private def jaccard(sets: Ragged, x: Int, y: Int): Double =
    jaccard(sets.flat, sets.start(x), sets.len(x), sets.flat, sets.start(y), sets.len(y))

  /** `Embed.jaccard` of two sets given as sorted distinct arrays: the same
    * arithmetic, and 1 for two empty sets.
    */
  private[repro] def jaccard(a: Array[Int], b: Array[Int]): Double = jaccard(a, 0, a.length, b, 0, b.length)

  /** `jaccard` of the `na` ints of `a` from `i` and the `nb` ints of `b`
    * from `j`.
    */
  private def jaccard(a: Array[Int], from: Int, na: Int, b: Array[Int], fromB: Int, nb: Int): Double = {
    if (na == 0 && nb == 0) return 1.0
    var i = from; var j = fromB
    var inter = 0
    while (i < from + na && j < fromB + nb) {
      if (a(i) == b(j)) { inter += 1; i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    inter.toDouble / (na + nb - inter)
  }

  /** Default cap on block size: transitive closure over low-threshold
    * edges can chain entire noisy datasets into one mega-block, which
    * defeats blocking's purpose (and the O(n^2) per-block phases).
    */
  val MaxBlockSize = 60

  /** Blocks = size-capped connected components of threshold-surviving
    * candidate edges. Edges are processed in descending similarity (ties
    * by ids) and a union is applied only while the merged block stays
    * within `cap`, so the strongest links bind first and chains are cut
    * at the weakest links. Returns recordId -> blockId (unmatched records
    * get their own singleton block).
    */
  def componentsCapped(allIds: Seq[Long], edges: Seq[(Long, Long, Double)],
                       cap: Int = MaxBlockSize): Map[Long, Long] = {
    val es   = Edges.of(edges)
    val uf   = new UnionFind(allIds)
    val size = scala.collection.mutable.Map.empty[Long, Int]
    allIds.foreach(id => size(id) = 1)
    // The (-sim, a, b) order, compared as the tuple ordering compares it.
    val order = sortedIndices(es.length) { (x, y) =>
      var c = java.lang.Double.compare(-es.sim(x), -es.sim(y))
      if (c == 0) c = java.lang.Long.compare(es.a(x), es.a(y))
      if (c == 0) c = java.lang.Long.compare(es.b(x), es.b(y))
      c
    }
    order.foreach { k =>
      val a = es.a(k); val b = es.b(k)
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
        val blockOf = componentsCapped(Array.concat(es.a, es.b).distinct.toVector, es)
        id => blockOf.getOrElse(id, id)
    }

  /** The scored pairs `block` links records with, collected from one
    * bucket join into one partition per core.
    */
  private[blocking] def edges(spark: SparkSession, ds: Dataset[Record], strategy: Strategy, bt: Double): Edges =
    edges(spark, ds, strategy, bt, spark.sparkContext.defaultParallelism)

  /** The scored pairs `block` links records with, from a bucket join
    * into `reducers` partitions.
    */
  private[blocking] def edges(spark: SparkSession, ds: Dataset[Record], strategy: Strategy, bt: Double,
                              reducers: Int): Edges = {
    val batches = strategy match {
      case NoBlocking => return Edges.of(Seq.empty)
      case LSH        => lshPairs(spark, ds, reducers)(_ >= bt)
      case Filter     => filterPairs(spark, ds, bt, reducers)(_ >= bt)
      case Canopy     => canopyPairs(spark, ds, math.max(0.05, bt - 0.15), reducers)(_ >= bt).map(_._1)
    }
    Edges.concat(batches.collect().toSeq)
  }
}

/** Scored record pairs packed in primitive arrays: pair k is
  * (a(k), b(k)) with similarity sim(k). It reads as the sequence of the
  * (id_a, id_b, sim) rows it packs.
  */
private[blocking] final class Edges(val a: Array[Long], val b: Array[Long], val sim: Array[Double])
    extends IndexedSeq[(Long, Long, Double)] with Serializable {
  def length: Int = a.length
  def apply(k: Int): (Long, Long, Double) = (a(k), b(k), sim(k))
}

private[blocking] object Edges {
  /** `edges` packed, or `edges` itself when it already is. */
  def of(edges: Seq[(Long, Long, Double)]): Edges = edges match {
    case e: Edges => e
    case _        => new Edges(edges.iterator.map(_._1).toArray, edges.iterator.map(_._2).toArray,
                               edges.iterator.map(_._3).toArray)
  }

  def concat(es: Seq[Edges]): Edges =
    new Edges(Array.concat(es.map(_.a): _*), Array.concat(es.map(_.b): _*), Array.concat(es.map(_.sim): _*))
}

/** Builds one `Edges` batch pair by pair. */
private[blocking] final class EdgeBuilder {
  private val a = new ArrayBuilder.ofLong; private val b = new ArrayBuilder.ofLong
  private val sim = new ArrayBuilder.ofDouble
  def add(x: Long, y: Long, s: Double): Unit = { a += x; b += y; sim += s }
  def result(): Edges = new Edges(a.result(), b.result(), sim.result())
}
