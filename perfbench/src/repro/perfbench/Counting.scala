package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.blocking.Blocking
import repro.core.Record
import repro.embed.Embed
import repro.exp.Harness
import scala.collection.mutable

/** Counters that cost extra work, taken in a pass of their own after the
  * traced resolution so that they do not inflate its spans.
  */
object Counting {

  final case class Counts(candidatePairs: Long, edges: Long, exactEdges: Long, edgesFoundExact: Long,
                          componentsS: Double, mdgFlagged: Long, setCalls: Long) {
    /** Share of the exact edges at or above bt that blocking found; with
      * no blocking every pair shares the one block.
      */
    def edgeRecall: Double = if (exactEdges == 0) 1.0 else edgesFoundExact.toDouble / exactEdges
    def edgeYield: Double  = if (candidatePairs == 0) 0.0 else edges.toDouble / candidatePairs
  }

  def apply(spark: SparkSession, w: Workload, s: Bench.Setup, r: Resolution,
            blocks: Seq[BlockStat]): Counts = {
    import spark.implicits._
    def scored(df: DataFrame): (Long, Vector[(Long, Long, Double)]) = {
      val c = df.cache()
      try (c.count(), c.where(col("sim") >= r.bt).select("id_a", "id_b", "sim")
                       .as[(Long, Long, Double)].collect().toVector)
      finally c.unpersist(blocking = true)
    }
    val (candidates, edges) = w.strategy match {
      case Blocking.LSH        => scored(Blocking.lshCandidates(spark, s.ds))
      case Blocking.Filter     => scored(Blocking.filterCandidates(spark, s.ds, r.bt))
      case Blocking.NoBlocking => (0L, Vector.empty[(Long, Long, Double)])
      case other               => throw new IllegalArgumentException(s"no counting pass for ${other.name}")
    }
    val ids = s.records.map(_.id)
    val componentsS =
      if (w.strategy == Blocking.NoBlocking) 0.0
      else Stats.median(Vector.fill(3) {
        val t0 = System.nanoTime()
        Blocking.componentsCapped(ids, edges)
        (System.nanoTime() - t0) / 1e9
      })
    val exact = exactEdges(w.strategy, s.records, r.bt)
    val found = edges.count { case (a, b, _) => exact.contains(key(a, b)) }

    val (flagged, setCalls) =
      if (w.method != Harness.MCer) (0L, 0L)
      else {
        val byId  = s.records.map(x => x.id -> x).toMap
        val stats = blocks.map(b => Probes.probe(w, r.bt, r.floor, mdg = true)(b.blockId, b.ids.map(byId))._2)
        (stats.map(_.mdgFlagged).sum, stats.map(_.setCalls).sum)
      }
    Counts(candidates, edges.size, exact.size, found, componentsS, flagged, setCalls)
  }

  private def key(a: Long, b: Long): Long = (math.min(a, b) << 32) | math.max(a, b)

  /** Every pair at or above `bt` under the strategy's similarity, by an
    * exhaustive loop that uses the same arithmetic as the program.
    */
  def exactEdges(strategy: Blocking.Strategy, recs: Vector[Record], bt: Double): mutable.HashSet[Long] = {
    val out = mutable.HashSet.empty[Long]
    val n   = recs.size
    strategy match {
      case Blocking.LSH =>
        var i = 0
        while (i < n) {
          var j = i + 1
          while (j < n) { if (recs(i).cos(recs(j)) >= bt) out += key(recs(i).id, recs(j).id); j += 1 }
          i += 1
        }
      case Blocking.Filter =>
        val toks = recs.map(r => Embed.tokens(r.text).toSet)
        var i = 0
        while (i < n) {
          var j = i + 1
          while (j < n) {
            val (a, b) = (toks(i), toks(j))
            val sim =
              if (a.isEmpty && b.isEmpty) 1.0
              else { val inter = a.count(b); inter.toDouble / (a.size + b.size - inter) }
            if (sim >= bt) out += key(recs(i).id, recs(j).id)
            j += 1
          }
          i += 1
        }
      case _ =>
    }
    out
  }
}
