package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.ERParams
import repro.data.{Categorical, DatasetProfile, ERGen, Numeric, Textual}
import repro.exp.{Harness, ResultRow, Sweeps, Tables}

/** spark-submit entrypoints — one per evaluation-section table.
  *
  *   spark-submit --class repro.jobs.Table2Job repro.jar
  *
  * A job's `table` is the table's one definition: it runs the table's
  * configurations, prints our rows next to the paper's (see EXPERIMENTS.md)
  * and returns them by paper key. The table's bench suite calls it too.
  */
object JobSpark {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Prints `table` on a session named `name`, then stops the session. */
  def run(name: String)(table: SparkSession => Any): Unit = {
    val spark = session(name)
    try table(spark) finally spark.stop()
  }
}

object Table1Job {
  /** Table 1: each dataset's statistics; returns its generated entity sizes. */
  def table(): Map[String, Array[Int]] = {
    println("== Table 1: dataset statistics (paper -> ours) ==")
    DatasetProfile.all.map { p =>
      val sizes = ERGen.entitySizes(p)
      val kinds = p.attrCountsByKind.toSeq.sorted.map { case (k, n) => s"$k($n)" }.mkString(",")
      println(f"${p.name}%-10s #Rec=${p.numRecords}%6d #Ent=${p.numEntities}%6d " +
        f"Ed=${sizes.sum.toDouble / sizes.length}%5.1f #Attr=${p.attrs.size}%2d types=$kinds")
      p.name -> sizes
    }.toMap
  }

  def main(args: Array[String]): Unit = table()
}

object Table2Job {
  val datasets = Seq("Cora", "Alaska", "AS")
  val modes = Seq("pairwise" -> Harness.MPair, "clustering" -> Harness.MCer)

  /** Table 2: pairwise (Ss=2) vs in-context clustering (Ss=9), and Table 3:
    * record sets per level of the clustering runs; rows by (dataset, mode).
    */
  def table(spark: SparkSession): Map[(String, String), ResultRow] = {
    println("== Table 2: pairwise (Ss=2) vs in-context clustering (Ss=9) ==")
    datasets.flatMap { name =>
      val rows = modes.map { case (mode, method) =>
        val row = Harness.run(spark, DatasetProfile.byName(name), method)
        val (pAcc, pFp, pCost, pTok, pTime, pCalls) = Tables.table2Paper((name, mode))
        println(Tables.fmtRow(s"$name/$mode",
          f"ACC=$pAcc%.2f FP=$pFp%.2f $$$pCost%.2f ${pTok}%.2fM ${pTime}%.0fmin ${pCalls}%.2fK",
          f"ACC=${row.acc}%.2f FP=${row.fp}%.2f $$${row.costUsd}%.2f ${row.tokensM}%.2fM " +
          f"${row.timeMin}%.0fmin ${row.apiCalls / 1000.0}%.2fK"))
        (name, mode) -> row
      }
      println(Tables.fmtRow(s"Table3 $name levels",
        Tables.table3Paper(name).mkString(","), rows.last._2.setsPerLevel.mkString(",")))
      rows
    }.toMap
  }

  def main(args: Array[String]): Unit = JobSpark.run("table2")(table)
}

object Table4Job {
  val methods = Seq(Harness.MCer, Harness.MBooster, Harness.MBq, Harness.MCrowd)

  /** Table 4: LLM-CER and the baselines on all nine datasets; rows by (dataset, method). */
  def table(spark: SparkSession): Map[(String, String), ResultRow] = {
    println("== Table 4: end-to-end comparison ==")
    (for (p <- DatasetProfile.all; m <- methods) yield {
      val row = Harness.run(spark, p, m)
      val (pAcc, pFp, pCost, pTok, pTime, pCalls) = Tables.table4Paper((p.name, m.name))
      println(Tables.fmtRow(s"${p.name}/${m.name}",
        f"ACC=$pAcc%.2f FP=$pFp%.2f $$$pCost%.2f ${pTok}%.2fM ${pTime}%.0fs $pCalls%d",
        f"ACC=${row.acc}%.2f FP=${row.fp}%.2f $$${row.costUsd}%.2f ${row.tokensM}%.2fM " +
        f"${row.timeSec}%.0fs ${row.apiCalls}%d"))
      (p.name, m.name) -> row
    }).toMap
  }

  def main(args: Array[String]): Unit = JobSpark.run("table4")(table)
}

object Table5Job {
  /** The attribute-count configurations (Cora, Alaska), by label. */
  val byCount: Seq[(String, DatasetProfile)] =
    (Seq(4, 8, 12).map(DatasetProfile.cora.withAttrCount) ++
     Seq(3, 6, 9).map(DatasetProfile.alaska.scaledTo(2400).copy(name = "Alaska").withAttrCount)).map(p => p.name -> p)

  /** The attribute-type ablations (WA, Citeseer), by label. */
  val byType: Seq[(String, DatasetProfile)] =
    Seq(DatasetProfile.walmartAmazon, DatasetProfile.citeseer.scaledTo(2400).copy(name = "Citeseer")).flatMap { base =>
      (s"${base.name}-full" -> base) +:
        Seq(Textual, Numeric, Categorical).map(base.withoutKind).map(p => p.name -> p)
    }

  /** Table 5: the optimal (Ss, Sd) of each configuration, from the §4.2
    * record-set sweeps; by label.
    */
  def table(): Map[String, (Int, Int)] = {
    println("== Table 5: optimal Ss/Sd per attribute configuration ==")
    (byCount ++ byType).map { case (label, p) =>
      val (ss, sd) = Sweeps.optimalFactors(p, n = 80)
      val (pSs, pSd) = Tables.table5Paper(label)
      println(Tables.fmtRow(s"Table5 $label", s"Ss=$pSs Sd=$pSd", s"Ss=$ss Sd=$sd"))
      (label, (ss, sd))
    }.toMap
  }

  def main(args: Array[String]): Unit = table()
}

object Table6Job {
  /** (dataset, attribute count) -> profile. */
  val configs: Seq[((String, Int), DatasetProfile)] =
    for ((base, counts) <- Seq(DatasetProfile.cora -> Seq(4, 8, 12), DatasetProfile.alaska -> Seq(3, 6, 9));
         n <- counts) yield (base.name, n) -> base.withAttrCount(n)

  /** Table 6: LLM-CER vs attribute count; rows by (dataset, attribute count). */
  def table(spark: SparkSession): Map[(String, Int), ResultRow] = {
    println("== Table 6: end-to-end vs attribute count ==")
    configs.map { case (key @ (name, n), p) =>
      val row = Harness.run(spark, p, Harness.MCer)
      val (pAcc, pFp) = Tables.table6Paper(key)
      println(Tables.fmtRow(s"$name An=$n", f"ACC=$pAcc%.2f FP=$pFp%.2f",
        f"ACC=${row.acc}%.2f FP=${row.fp}%.2f $$${row.costUsd}%.2f ${row.tokensM}%.2fM calls=${row.apiCalls}"))
      key -> row
    }.toMap
  }

  def main(args: Array[String]): Unit = JobSpark.run("table6")(table)
}

object Table7Job {
  /** (dataset, variant) -> profile. */
  val configs: Seq[((String, String), DatasetProfile)] =
    for (base <- Seq(DatasetProfile.walmartAmazon, DatasetProfile.citeseer);
         (label, p) <- Seq("full" -> base, "noT" -> base.withoutKind(Textual),
                           "noN" -> base.withoutKind(Numeric), "noC" -> base.withoutKind(Categorical)))
      yield (base.name, label) -> p

  /** Table 7: LLM-CER vs attribute-type ablations; rows by (dataset, variant). */
  def table(spark: SparkSession): Map[(String, String), ResultRow] = {
    println("== Table 7: end-to-end vs attribute types ==")
    configs.map { case (key @ (name, label), p) =>
      val row = Harness.run(spark, p, Harness.MCer)
      val (pAcc, pFp) = Tables.table7Paper(key)
      println(Tables.fmtRow(s"$name $label", f"ACC=$pAcc%.2f FP=$pFp%.2f",
        f"ACC=${row.acc}%.2f FP=${row.fp}%.2f tok=${row.tokensM}%.2fM calls=${row.apiCalls}"))
      key -> row
    }.toMap
  }

  def main(args: Array[String]): Unit = JobSpark.run("table7")(table)
}

object Table8Job {
  val datasets = Seq("Cora", "Alaska", "AS")

  /** Table 8: LLM-CER without and with the MDG guardrail; rows by (dataset, MDG on). */
  def table(spark: SparkSession): Map[(String, Boolean), ResultRow] = {
    println("== Table 8: MDG ablation ==")
    (for (name <- datasets; mdg <- Seq(false, true)) yield {
      val row = Harness.run(spark, DatasetProfile.byName(name), Harness.MCer, params = ERParams(useMDG = mdg))
      val (pAcc, pFp) = if (mdg) Tables.table8Paper(name)._2 else Tables.table8Paper(name)._1
      println(Tables.fmtRow(s"$name ${if (mdg) "w/ " else "w/o"} MDG", f"ACC=$pAcc%.2f FP=$pFp%.2f",
        f"ACC=${row.acc}%.2f FP=${row.fp}%.2f calls=${row.apiCalls}"))
      (name, mdg) -> row
    }).toMap
  }

  def main(args: Array[String]): Unit = JobSpark.run("table8")(table)
}
