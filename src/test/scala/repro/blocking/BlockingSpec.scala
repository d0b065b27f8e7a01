package repro.blocking

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.core.{LLMCER, Record}
import repro.data.{DatasetProfile, ERGen}
import repro.embed.Embed

class BlockingSpec extends SparkSpec with PropSupport {

  private lazy val mini = DatasetProfile.mini(DatasetProfile.citeseer, 250)
  private lazy val ds   = {
    import spark.implicits._
    ERGen.records(spark, mini).cache()
  }
  private lazy val local = ERGen.recordsLocal(mini)

  test("Spark and local generators agree record-for-record") {
    val fromSpark = ds.collect().sortBy(_.id).toVector
    assert(fromSpark.map(_.text) == local.map(_.text))
    assert(fromSpark.map(_.entityId) == local.map(_.entityId))
  }

  test("LSH candidates have high recall on same-entity pairs") {
    val cands = Blocking.lshCandidates(spark, ds).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val entOf = local.map(r => r.id -> r.entityId).toMap
    val truePairs = for {
      i <- local.indices; j <- i + 1 until local.size
      if local(i).entityId == local(j).entityId
    } yield (local(i).id, local(j).id)
    val found = truePairs.count { case (a, b) =>
      cands.contains((a, b)) || cands.contains((b, a)) }
    assert(found.toDouble / truePairs.size > 0.7,
      s"LSH recall ${found.toDouble / truePairs.size}")
    assert(entOf.nonEmpty)
  }

  test("LSH candidate sims equal the direct cosine (DuckDB-checked count)") {
    val cands = Blocking.lshCandidates(spark, ds)
    val byId  = local.map(r => r.id -> r).toMap
    cands.limit(50).collect().foreach { row =>
      val expect = byId(row.getLong(0)).cos(byId(row.getLong(1)))
      assert(math.abs(row.getDouble(2) - expect) < 1e-6)
    }
    // Oracle-check the aggregation path: candidate count per left record.
    import spark.implicits._
    val agg = cands.groupBy($"id_a").agg(count(lit(1)).as("n_cand"))
      .select($"id_a".cast("string").as("id_a"), $"n_cand")
    repro.Oracle.assertEquivalent(
      agg,
      "SELECT id_a, COUNT(*) AS n_cand FROM cand GROUP BY id_a",
      "cand" -> cands.select($"id_a".cast("string").as("id_a"),
                             $"id_b".cast("string").as("id_b")))
  }

  test("filter candidates find every Jaccard>=bt pair (prefix completeness)") {
    val bt = 0.5
    val cands = Blocking.filterCandidates(spark, ds, bt)
      .where(col("sim") >= bt).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    // Brute force reference on a subsample.
    val sub = local.take(80)
    for (i <- sub.indices; j <- i + 1 until sub.size) {
      if (Embed.jaccard(sub(i).text, sub(j).text) >= bt) {
        val p = (sub(i).id, sub(j).id)
        assert(cands.contains(p), s"missing pair $p")
      }
    }
  }

  test("canopy produces scored candidates") {
    val c = Blocking.canopyCandidates(spark, ds, ms = 0.3)
    assert(c.columns.toSet == Set("id_a", "id_b", "sim", "cheap"))
    assert(c.count() > 0)
  }

  test("componentsCapped forms connected components with singleton fallback") {
    val comp = Blocking.componentsCapped(Seq(1L, 2L, 3L, 4L, 5L), Seq((1L, 2L, 1.0), (2L, 3L, 1.0)),
                                         cap = Int.MaxValue)
    assert(comp(1L) == comp(2L) && comp(2L) == comp(3L))
    assert(comp(4L) != comp(1L) && comp(4L) != comp(5L))
  }
  test("componentsCapped uses the smallest member id as block id") {
    val comp = Blocking.componentsCapped(Seq(7L, 3L, 9L), Seq((7L, 9L, 1.0)), cap = Int.MaxValue)
    assert(comp(7L) == 7L && comp(9L) == 7L && comp(3L) == 3L)
  }

  /** Texts with no token, no first attribute, or repeated tokens. */
  private lazy val oddTexts = {
    import spark.implicits._
    Seq("", "!!! ---", "|", "| tail only", "alpha alpha beta", "beta alpha alpha", "alpha | beta beta", "gamma")
      .zipWithIndex.map { case (t, i) => Record(i.toLong, i.toLong, t, Embed.embed(t)) }.toDS()
  }

  /** The partition of `ids` that a block id per id induces. */
  private def partitionOf(ids: Seq[Long], blockIds: Seq[Long]): Set[Set[Long]] =
    ids.zip(blockIds).groupMap(_._2)(_._1).values.map(_.toSet).toSet

  test("block covers every record exactly once for each strategy") {
    // `block` is a function of the id, so it covers every id by
    // construction; what it must get right is the partition it induces,
    // and the block ids, over every record of the data set.
    for ((data, n) <- Seq(ds -> mini.numRecords, oddTexts -> 8);
         strategy <- Seq(Blocking.LSH, Blocking.Filter, Blocking.Canopy, Blocking.NoBlocking)) {
      val ids = data.collect().map(_.id).toVector
      assert(ids.size == n && ids.distinct.size == n, strategy.name)
      val got = ids.map(Blocking.block(spark, data, strategy, bt = 0.5))
      val expected =
        if (strategy == Blocking.NoBlocking) ids.map(_ => 0L)
        else ids.map(Blocking.componentsCapped(ids, Blocking.edges(spark, data, strategy, 0.5)))
      assert(partitionOf(ids, got) == partitionOf(ids, expected), strategy.name)
      assert(got == expected, strategy.name)
    }
  }
  test("NoBlocking puts everything in one block") {
    val ids = ds.collect().map(_.id).toVector
    val got = ids.map(Blocking.block(spark, ds, Blocking.NoBlocking, 0.5))
    assert(partitionOf(ids, got) == Set(ids.toSet))
  }

  test("tuneThreshold returns a threshold in (0,1) maximising pair F1") {
    val t = LLMCER.tuneThreshold(local.take(120), (a, b) => a.cos(b))
    assert(t >= 0.05 && t <= 0.95)
  }
  test("tuneThreshold splits clearly separated similarity distributions") {
    // Synthetic: same-entity pairs sim ~0.9, different ~0.1.
    val recs = (0 until 40).map { i =>
      val ent = i / 2
      val txt = if (i % 2 == 0) s"entity $ent common words here"
                else s"entity $ent common words there"
      Record(i.toLong, ent.toLong, txt, Embed.embed(txt))
    }.toVector
    val t = LLMCER.tuneThreshold(recs, (a, b) => a.cos(b))
    val same = recs(0).cos(recs(1)); val diff = recs(0).cos(recs(2))
    assert(t <= same && t > math.min(0.05, diff - 1))
  }

  /** The sweep as first written: count every pair at every threshold. */
  private def bruteForceThreshold(sample: Vector[Record], sims: (Record, Record) => Double): Double = {
    val pairs = for {
      i <- sample.indices; j <- i + 1 until sample.size
    } yield (sims(sample(i), sample(j)), sample(i).entityId == sample(j).entityId)
    (1 to 19).map(_ * 0.05).maxBy { t =>
      val tp = pairs.count { case (s, same) => s >= t && same }
      val fp = pairs.count { case (s, same) => s >= t && !same }
      val fn = pairs.count { case (s, same) => s < t && same }
      if (tp == 0) 0.0 else {
        val p = tp.toDouble / (tp + fp); val r = tp.toDouble / (tp + fn)
        2 * p * r / (p + r)
      }
    }
  }

  test("tuneThreshold equals brute-force counting, ties at s == t included") {
    // Similarities are drawn mostly from the threshold grid itself.
    val sim = Gen.frequency(4 -> Gen.choose(0, 20).map(_ * 0.05), 1 -> Gen.choose(0.0, 1.0),
                            1 -> Gen.const(Double.NaN))
    val gen = for {
      n    <- Gen.choose(0, 30)
      ents <- Gen.listOfN(n, Gen.choose(0L, 6L))
      sims <- Gen.listOfN(n * n, sim)
    } yield (ents.zipWithIndex.map { case (e, i) => Record(i.toLong, e, "", Array.emptyFloatArray) }.toVector,
             sims.toVector)
    checkProp(Prop.forAllNoShrink(gen) { case (recs, table) =>
      val sims = (a: Record, b: Record) => table((a.id * recs.size + b.id).toInt)
      LLMCER.tuneThreshold(recs, sims) == bruteForceThreshold(recs, sims)
    }, minTests = 300)
  }

  /** The edges `block` linked records with when it thresholded the public
    * candidate DataFrames in SQL, as it did before the threshold moved
    * into the bucket task. Canopy keeps its rule of that time, a member
    * with `cheap >= bs` or `sim >= bt`: `sim >= bt` alone must keep the
    * same edges, since `sim >= cheap` and `bs >= bt`.
    */
  private def sqlEdges(data: Dataset[Record], strategy: Blocking.Strategy, bt: Double): Vector[(Long, Long, Double)] = {
    import spark.implicits._
    val kept = strategy match {
      case Blocking.LSH    => Blocking.lshCandidates(spark, data).where(col("sim") >= bt)
      case Blocking.Filter => Blocking.filterCandidates(spark, data, bt).where(col("sim") >= bt)
      case Blocking.Canopy =>
        Blocking.canopyCandidates(spark, data, ms = math.max(0.05, bt - 0.15))
          .where(col("cheap") >= math.min(0.95, bt + 0.15) || col("sim") >= bt)
    }
    kept.select("id_a", "id_b", "sim").as[(Long, Long, Double)].collect().toVector
  }

  /** Edges sorted by ids, sims as raw bits. */
  private def bits(edges: Seq[(Long, Long, Double)]): Vector[(Long, Long, Long)] =
    edges.map { case (a, b, s) => (a, b, java.lang.Double.doubleToRawLongBits(s)) }.toVector.sorted

  test("block's in-task thresholds keep exactly the SQL-thresholded candidates, ties at sim == bt included") {
    for (profile <- Seq(DatasetProfile.mini(DatasetProfile.alaska, 600), DatasetProfile.mini(DatasetProfile.as, 600),
                        DatasetProfile.mini(DatasetProfile.citeseer, 250))) {
      val data = ERGen.records(spark, profile).cache()
      try {
        val ids = data.collect().map(_.id).toSeq
        for (strategy <- Seq(Blocking.LSH, Blocking.Filter, Blocking.Canopy)) {
          // 0.35 puts the SQL side's Canopy bs at 0.5; the median kept score at 0.5 is
          // a threshold some candidate's score equals exactly.
          val atHalf = sqlEdges(data, strategy, 0.5).map(_._3).sorted
          val tie    = atHalf(atHalf.size / 2)
          for (bt <- Seq(0.35, tie)) {
            val expected = sqlEdges(data, strategy, bt)
            assert(bt != tie || expected.exists(_._3 == bt), s"no tie at sim == bt, ${profile.name} ${strategy.name}")
            for (parts <- Seq(1, 7)) {
              val at = s"${profile.name} ${strategy.name} bt=$bt, $parts input partitions"
              val in = data.repartition(parts)
              assert(bits(Blocking.edges(spark, in, strategy, bt)) == bits(expected), s"edges differ, $at")
              assert(ids.map(Blocking.block(spark, in, strategy, bt)) == ids.map(Blocking.componentsCapped(ids, expected)),
                     s"blocks differ, $at")
            }
          }
        }
      } finally data.unpersist()
    }
  }
}
