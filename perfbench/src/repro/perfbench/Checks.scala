package repro.perfbench

import repro.core.Record
import scala.collection.mutable

/** Correctness checks applied to every resolution the benchmark times. */
object Checks {

  /** The partition must assign every input record id exactly once. */
  def partition(p: Vector[Set[Long]], records: Vector[Record]): Vector[String] = {
    val seen = mutable.HashSet.empty[Long]
    var twice = 0L
    p.foreach(_.foreach(id => if (!seen.add(id)) twice += 1))
    val ids     = records.iterator.map(_.id).toSet
    val missing = ids.count(id => !seen(id))
    val unknown = seen.count(id => !ids(id))
    Vector(twice -> "assigned twice", missing.toLong -> "never assigned", unknown.toLong -> "not in the input")
      .collect { case (k, what) if k > 0 => s"$k record ids $what" }
  }

  def same(what: String, expected: Any, got: Any): Vector[String] =
    if (expected == got) Vector.empty else Vector(s"$what differs: expected $expected, got $got")
}
