package repro.bench

import repro.SparkSpec
import repro.jobs.Table8Job

/** Table 8 — effect of the MDG guardrail and record-set regeneration. */
class Table8Bench extends SparkSpec {

  test("Table 8: MDG ablation on Cora, Alaska, AS") {
    val rows = Table8Job.table(spark)
    for (name <- Table8Job.datasets) {
      val without = rows((name, false)); val withMdg = rows((name, true))
      // Paper finding: MDG improves quality at a modest call overhead.
      assert(withMdg.fp >= without.fp - 0.02,
        s"$name: MDG should not reduce FP (with=${withMdg.fp}, without=${without.fp})")
      assert(withMdg.apiCalls >= without.apiCalls)
      assert(withMdg.apiCalls <= without.apiCalls * 3, s"$name: MDG overhead out of band")
    }
  }
}
