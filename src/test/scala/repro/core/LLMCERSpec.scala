package repro.core

import org.apache.spark.sql.Dataset
import repro.SparkSpec
import repro.blocking.Blocking
import repro.data.DatasetProfile
import repro.exp.{Harness, ResultRow}
import repro.llm.LLMConfig

class LLMCERSpec extends SparkSpec {

  private lazy val mini = DatasetProfile.mini(DatasetProfile.citeseer, 300)

  /** LLM-CER with LSH blocking, composed as `Harness.runOnDataset` composes it. */
  private def runCer(ds: Dataset[Record]): ERResult = {
    val bt    = LLMCER.tunedThreshold(ds, Blocking.LSH)
    val floor = LLMCER.tunedFloor(ds, Blocking.LSH)
    val fn    = Harness.blockFn(Harness.MCer, ERParams.default, LLMConfig.default, 0, bt, floor)
    LLMCER.runWith(spark, ds, Blocking.LSH, fn, Some(bt))
  }

  test("end-to-end LLM-CER partitions every record exactly once") {
    val ds  = repro.data.ERGen.records(spark, mini).cache()
    val res = runCer(ds)
    assert(res.partition.map(_.size).sum == mini.numRecords)
    assert(res.partition.flatten.toSet.size == mini.numRecords)
    ds.unpersist()
  }

  test("end-to-end quality on an easy mini dataset clears a sane bar") {
    val row = Harness.run(spark, mini, Harness.MCer)
    assert(row.acc > 0.6, s"ACC too low: ${row.acc}")
    assert(row.fp > 0.6, s"FP too low: ${row.fp}")
    assert(row.apiCalls > 0 && row.costUsd > 0)
  }

  test("setsPerLevel decreases from level 0 and api calls equal their sum") {
    val ds  = repro.data.ERGen.records(spark, mini).cache()
    val res = runCer(ds)
    assert(res.setsPerLevel.nonEmpty)
    assert(res.setsPerLevel.head == res.setsPerLevel.max)
    assert(res.usage.apiCalls == res.setsPerLevel.map(_.toLong).sum)
    ds.unpersist()
  }

  test("in-context clustering needs far fewer calls than pairwise (Table 2 shape)") {
    val cer  = Harness.run(spark, mini, Harness.MCer)
    val pair = Harness.run(spark, mini, Harness.MPair)
    assert(cer.apiCalls * 3 < pair.apiCalls,
      s"expected >=3x call reduction: cer=${cer.apiCalls} pair=${pair.apiCalls}")
    assert(cer.tokensM < pair.tokensM)
  }

  test("a perfect-oracle run with clean data achieves near-perfect FP") {
    val clean = mini.copy(typoRate = 0.0, dropRate = 0.0, missingRate = 0.0,
                          sharedNoise = 0.0, confusability = 0.0, name = "Clean")
    val oracleCfg = LLMConfig(hallBase = 0.0, mergeHallBase = 0.0,
                              giantMergeBase = 0.0, bias = 30.0)
    val row = Harness.run(spark, clean, Harness.MCer, Blocking.LSH,
                          ERParams(), oracleCfg)
    assert(row.fp > 0.90, s"clean-data FP: ${row.fp}") // blocking recall is the ceiling
  }

  test("MDG improves quality at small call overhead (Table 8 direction)") {
    val hard = DatasetProfile.mini(DatasetProfile.as, 400)
    val withMdg = Harness.run(spark, hard, Harness.MCer, Blocking.LSH, ERParams(useMDG = true))
    val without = Harness.run(spark, hard, Harness.MCer, Blocking.LSH, ERParams(useMDG = false))
    assert(withMdg.fp >= without.fp - 0.03,
      s"MDG should not hurt FP: with=${withMdg.fp} without=${without.fp}")
    assert(withMdg.apiCalls >= without.apiCalls)
  }

  test("runWith gives the same ERResult at any input and shuffle partitioning") {
    // The blocks reach the driver in an order that depends on the shuffle
    // layout; the merge must not let that order into the result. Blocking
    // and the resolve stage shuffle into one partition per core, so
    // `spark.sql.shuffle.partitions` no longer shapes them; the input
    // repartitioning still varies which records each map task sends.
    val ds   = repro.data.ERGen.records(spark, DatasetProfile.mini(DatasetProfile.as, 400)).cache()
    val conf = spark.conf
    val keys = Seq("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    val saved = keys.map(k => k -> conf.getOption(k))
    try {
      conf.set("spark.sql.adaptive.coalescePartitions.enabled", "false")
      val results = Seq(1, 7, 64).map { n =>
        conf.set("spark.sql.shuffle.partitions", n.toString)
        runCer(ds.repartition(n))
      }
      assert(results.forall(_ == results.head))
    } finally {
      saved.foreach { case (k, v) => v.fold(conf.unset(k))(conf.set(k, _)) }
      ds.unpersist()
    }
  }

  test("tunedThreshold lies in the sweep range for every strategy") {
    val ds = repro.data.ERGen.records(spark, mini).cache()
    for (s <- Seq(Blocking.LSH, Blocking.Filter)) {
      val t = LLMCER.tunedThreshold(ds, s)
      assert(t >= 0.05 && t <= 0.95, s"$s: $t")
    }
    ds.unpersist()
  }

  test("tunedFloor sits below the typical same-entity similarity") {
    val ds = repro.data.ERGen.records(spark, mini).cache()
    val f  = LLMCER.tunedFloor(ds, Blocking.LSH)
    assert(f > 0.0 && f < 1.0)
    ds.unpersist()
  }

  test("tunedThreshold and tunedFloor do not depend on the input partitioning, and keep their recorded values") {
    // Both read the 600 smallest ids; AS-400 has 400 records, so the
    // sample is the whole data set in id order. Pinned values, as raw
    // bits, are those the sample gave when it was drawn by a sorted
    // Dataset query: LSH 0.65 and 0.5567942671477795, Filter 0.25 and 2/9.
    val ds = repro.data.ERGen.records(spark, DatasetProfile.mini(DatasetProfile.as, 400)).cache()
    def bits(d: Double) = java.lang.Double.doubleToRawLongBits(d)
    try for ((strategy, threshold, floor) <- Seq((Blocking.LSH, 4604029899060858061L, 4603190376453373952L),
                                                 (Blocking.Filter, 4598175219545276416L, 4597174419628082972L));
             parts <- Seq(1, 7)) {
      val in = ds.repartition(parts)
      assert(bits(LLMCER.tunedThreshold(in, strategy)) == threshold, s"${strategy.name}, $parts partitions")
      assert(bits(LLMCER.tunedFloor(in, strategy)) == floor, s"${strategy.name}, $parts partitions")
    }
    finally ds.unpersist()
  }

  test("baseline methods all produce full partitions on the mini dataset") {
    for (m <- Seq(Harness.MBooster, Harness.MBq, Harness.MCrowd)) {
      val row = Harness.run(spark, DatasetProfile.mini(DatasetProfile.citeseer, 150), m)
      assert(row.acc > 0.2, s"${m.name} ACC=${row.acc}")
      assert(row.apiCalls >= 0)
    }
  }

  test("LLM-CER beats or matches baselines on quality for the mini dataset (Table 4 direction)") {
    val p    = DatasetProfile.mini(DatasetProfile.citeseer, 250)
    val cer  = Harness.run(spark, p, Harness.MCer)
    val bq   = Harness.run(spark, p, Harness.MBq)
    assert(cer.fp >= bq.fp - 0.10, s"cer=${cer.fp} bq=${bq.fp}")
    assert(cer.apiCalls < bq.apiCalls)
  }

  test("LLM-CER without blocking on a Cora mini profile reproduces its recorded ResultRow") {
    // Pinned output: one 300-record block runs threshold and floor tuning,
    // NRS with its k-means elbow search over the whole block, the simulated
    // LLM, MDG and CMR. Any change to their arithmetic order moves this row.
    // A change that alters outputs on purpose updates the row and says so.
    val row = Harness.run(spark, DatasetProfile.mini(DatasetProfile.cora, 300), Harness.MCer,
                          Blocking.NoBlocking)
    assert(row == ResultRow("Cora-300", "LLM-CER", 0.5233333333333333, 0.5877620396600566,
      0.6395404792278948, 0.34536946097405974, 0.0177639, 0.106306, 4.114366666666666, 137,
      Vector(55, 24, 16, 17, 12, 13), 1))
  }

  test("LLM-CER without blocking on full Cora reproduces its recorded ResultRow") {
    // Pinned output: the whole 1,290-record dataset is one block, so NRS's
    // elbow searches and fill steps run over up to 1,290 records per set.
    // It guards the large-block path, which the mini profiles do not reach.
    val row = Harness.run(spark, DatasetProfile.cora, Harness.MCer, Blocking.NoBlocking)
    assert(row == ResultRow("Cora", "LLM-CER", 0.4573643410852713, 0.5866173315189414,
      0.7528661500733214, 0.3364220656471951, 0.07118624999999999, 0.425435, 16.1395, 470,
      Vector(240, 86, 52, 30, 31, 31), 1))
  }

  test("LLM-CER with LSH blocking on a Cora mini profile reproduces its recorded ResultRow") {
    // Pinned output: LSH candidates, capped components over the edges at
    // or above the tuned threshold, and the per-block resolution of the
    // 44 blocks. A change to LSH banding or its cosine arithmetic moves
    // this row; a change that alters outputs on purpose updates it.
    val row = Harness.run(spark, DatasetProfile.mini(DatasetProfile.cora, 300), Harness.MCer,
                          Blocking.LSH)
    assert(row == ResultRow("Cora-300", "LLM-CER", 0.7166666666666667, 0.8329208250166331,
      0.8535471501706648, 0.6310374362555837, 0.0068145, 0.041026, 1.6425333333333334, 66,
      Vector(50, 14, 2), 44))
  }
}
