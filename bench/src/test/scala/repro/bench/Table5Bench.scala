package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.Table5Job

/** Table 5 — optimal key-factor values (Ss, Sd) vs attribute count and
  * attribute types, via the §4.2 record-set sweeps.
  */
class Table5Bench extends AnyFunSuite {

  private lazy val results = Table5Job.table()

  test("Table 5a: optimal values vs attribute count (Cora, Alaska)") {
    // Paper finding: single-type textual datasets keep Ss stable near 9.
    Table5Job.byCount.map(c => results(c._1)).foreach { case (ss, sd) =>
      assert(ss >= 6 && ss <= 13, s"Ss drifted: $ss")
      assert(sd >= 2 && sd <= 5, s"Sd drifted: $sd")
    }
  }

  test("Table 5b: optimal values vs attribute types (WA, Citeseer)") {
    // Paper finding: dropping WA's noisy textual attributes allows larger sets.
    assert(results("WA-noT")._1 >= results("WA-full")._1 - 1,
      s"WA-noT should allow Ss >= WA-full: ${results("WA-noT")._1} vs ${results("WA-full")._1}")
    // Citeseer stays near the canonical 9/4 in every ablation.
    Seq("Citeseer-full", "Citeseer-noT", "Citeseer-noN", "Citeseer-noC").foreach { l =>
      assert(results(l)._1 >= 6, s"$l Ss=${results(l)._1}")
    }
  }
}
