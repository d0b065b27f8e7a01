package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetProfile
import repro.jobs.Table1Job

/** Table 1 — dataset statistics: our generated datasets vs the paper's. */
class Table1Bench extends AnyFunSuite {
  test("Table 1: dataset statistics") {
    for ((name, sizes) <- Table1Job.table()) assert(sizes.sum == DatasetProfile.byName(name).numRecords, name)
  }
}
