package repro.perfbench

/** The benchmark's own unit checks: order statistics, span arithmetic
  * and call-site attribution. Every run executes them first and stops
  * if one fails; `java ... repro.perfbench.SelfCheck` runs them alone.
  */
object SelfCheck {

  private def check(ok: Boolean, what: String): Unit =
    if (!ok) throw new AssertionError(s"self-check failed: $what")

  private def near(got: Seq[Double], want: Seq[Double]): Boolean =
    got.size == want.size && got.zip(want).forall { case (a, b) => math.abs(a - b) < 1e-9 }

  def run(): Unit = {
    // Reference values from Python's statistics.median / quantiles.
    check(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0, "median of an odd count")
    check(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5, "median of an even count")
    check(near(Stats.quantiles((1 to 10).map(_.toDouble), 4), Seq(2.75, 5.5, 8.25)), "quartiles of 1..10")
    check(near(Stats.quantiles(Seq(1.0, 5.0), 4), Seq(0.0, 3.0, 6.0)), "quartiles of two values")
    check(near(Stats.quantiles(Seq(4.0, 1.0, 3.0), 4), Seq(1.0, 3.0, 4.0)), "quartiles of three values")
    check(near(Stats.quantiles((1 to 20).map(_.toDouble), 10),
               Seq(2.1, 4.2, 6.3, 8.4, 10.5, 12.6, 14.7, 16.8, 18.9)), "deciles of 1..20")
    check(near(Stats.quantiles(Seq(7.0), 4), Seq(7.0, 7.0, 7.0)), "quartiles of one value")

    // Overlapping children count once; the part outside the parent not at all.
    check(Spans.coveredNs(0, 100, Seq((10L, 40L), (30L, 60L), (90L, 130L))) == 60, "covered time")
    check(Spans.coveredNs(0, 100, Seq((150L, 160L))) == 0, "covered time outside the interval")
    val spans = Seq(
      Span("r", None, 0, 100), Span("a", Some("r"), 0, 30), Span("b", Some("r"), 30, 90),
      Span("c", Some("a"), 5, 10), Span("d", Some("a"), 8, 20))
    check(Spans.selfNs(spans(0), spans) == 10, "self time of the root")
    check(Spans.selfNs(spans(1), spans) == 15, "self time with overlapping children")
    check(Spans.selfNs(spans(3), spans) == 5, "self time of a leaf")
    check(math.abs(Spans.coverage(spans(0), spans) - 0.9) < 1e-12, "coverage of the root")
    val rec = new SpanRecorder
    rec("outer")(rec("inner")(()))
    check(rec.spans.map(s => s.name -> s.parent) == Vector("inner" -> Some("outer"), "outer" -> None),
          "nested spans get their parent")

    // Spark's long-form call site lists the innermost program frame first.
    val site = "repro.blocking.Blocking$.block(Blocking.scala:190)\n" +
               "repro.core.LLMCER$.runWith(LLMCER.scala:77)\n" +
               "repro.perfbench.Resolve$.apply(Workloads.scala:60)"
    check(Layers.ofCallSite(site) == "blocking", "blocking call site")
    check(Layers.ofCallSite(site.linesIterator.drop(1).mkString("\n")) == "core", "core call site")
    check(Layers.ofCallSite("repro.embed.Embed$.embed(Embed.scala:20)") == "data", "embedding call site")
    check(Layers.ofCallSite("repro.exp.Harness$.runOnDataset(Harness.scala:85)") == "exp", "harness call site")
    check(Layers.ofCallSite("repro.perfbench.Bench$.setUp(Bench.scala:40)") == "bench", "benchmark call site")
    check(Layers.ofCallSite("org.apache.spark.sql.Dataset.collect(Dataset.scala:3)") == "other",
          "call site without a program frame")
  }

  def main(args: Array[String]): Unit = {
    run()
    println("self-checks passed")
  }
}
