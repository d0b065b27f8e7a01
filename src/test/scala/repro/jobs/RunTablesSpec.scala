package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetProfile
import repro.exp.Tables

/** The table definitions look up the paper's row of every configuration
  * they run; a missing row would fail a table only after its first runs.
  */
class RunTablesSpec extends AnyFunSuite {

  test("every configuration a table definition runs has its paper row") {
    for (name <- Table2Job.datasets; (mode, _) <- Table2Job.modes)
      assert(Tables.table2Paper.contains((name, mode)), s"Table 2 $name/$mode")
    assert(Table2Job.datasets.forall(Tables.table3Paper.contains))
    for (p <- DatasetProfile.all; m <- Table4Job.methods)
      assert(Tables.table4Paper.contains((p.name, m.name)), s"Table 4 ${p.name}/${m.name}")
    val table5 = (Table5Job.byCount ++ Table5Job.byType).map(_._1)
    assert(table5.distinct.size == table5.size && table5.toSet == Tables.table5Paper.keySet)
    assert(Tables.table5Paper.size == 14)
    assert(Table6Job.configs.map(_._1).forall(Tables.table6Paper.contains))
    assert(Table7Job.configs.map(_._1).forall(Tables.table7Paper.contains))
    assert(Table8Job.datasets.forall(Tables.table8Paper.contains))
  }
}
