package repro.perfbench

import scala.collection.mutable

/** One timed interval on the benchmark's `System.nanoTime` clock. `parent`
  * names the span that caused it; names are unique within one trace.
  */
final case class Span(name: String, parent: Option[String], startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

object Spans {

  /** Length of the union of `intervals`, each clipped to [lo, hi). */
  def coveredNs(lo: Long, hi: Long, intervals: Seq[(Long, Long)]): Long = {
    val clipped = intervals
      .map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => a < b }
      .sortBy(_._1)
    var total = 0L
    var curA  = 0L
    var curB  = Long.MinValue
    clipped.foreach { case (a, b) =>
      if (a > curB) {
        if (curB != Long.MinValue) total += curB - curA
        curA = a; curB = b
      } else curB = math.max(curB, b)
    }
    if (curB != Long.MinValue) total += curB - curA
    total
  }

  /** A span's duration minus the part of it its child spans cover. */
  def selfNs(span: Span, all: Seq[Span]): Long =
    span.durNs - coveredNs(span.startNs, span.endNs,
      all.filter(_.parent.contains(span.name)).map(s => (s.startNs, s.endNs)))

  /** Share of `root` that its direct children add up to (1 = no gap). */
  def coverage(root: Span, all: Seq[Span]): Double =
    all.filter(_.parent.contains(root.name)).map(_.durNs).sum.toDouble / root.durNs
}

/** Wraps a call into a layer in a span, or does nothing when untraced. */
trait Tracer {
  def apply[T](name: String)(body: => T): T
}

object NoTrace extends Tracer {
  def apply[T](name: String)(body: => T): T = body
}

/** Keeps spans in memory; a span opened inside another is its child. */
final class SpanRecorder extends Tracer {
  private val open  = mutable.Stack.empty[String]
  private val done  = Vector.newBuilder[Span]

  def apply[T](name: String)(body: => T): T = {
    val parent = open.headOption
    open.push(name)
    val t0 = System.nanoTime()
    try body
    finally {
      done += Span(name, parent, t0, System.nanoTime())
      open.pop()
    }
  }

  def spans: Vector[Span] = done.result()
}

/** Maps a Spark job to the program layer whose code submitted it. */
object Layers {

  private val FramePackage = """\brepro\.([a-z]+)\.""".r

  /** Layer of the innermost program frame of a long-form call site
    * (one stack frame per line, innermost first, as Spark records it in
    * `StageInfo.details`): `repro.blocking` → blocking, `repro.core` →
    * core, and so on; "other" when no program frame is present.
    */
  def ofCallSite(callSite: String): String =
    FramePackage.findFirstMatchIn(callSite).map(_.group(1)) match {
      case Some("blocking")             => "blocking"
      case Some("core")                 => "core"
      case Some("data") | Some("embed") => "data"
      case Some("llm")                  => "llm"
      case Some("baselines")            => "baselines"
      case Some("exp") | Some("jobs")   => "exp"
      case Some("perfbench")            => "bench"
      case _                            => "other"
    }
}
