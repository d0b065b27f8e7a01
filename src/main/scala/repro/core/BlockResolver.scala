package repro.core

import repro.llm.LLMClient

/** Algorithm 4's per-block loop: NRS record sets → LLM in-context
  * clustering (with MDG + regeneration) → hierarchical CMR merging,
  * until anti-transitivity stops all merging. Every answer, at every
  * level, is applied by `CMR.applyAnswer`. Runs entirely inside one
  * Spark task per block (blocks are small), returning local cluster
  * assignments and telemetry.
  */
object BlockResolver {

  /** Result of the guardrail loop: the accepted clustering, the number
    * of LLM calls spent, and the *suspect* records — persistently
    * flagged records whose placement was discarded (split to singletons)
    * rather than trusted. Suspects carry no anti-transitivity: their
    * merge decision is deferred to later hierarchy levels, not denied.
    */
  final case class Guarded(result: Clustering, calls: Int, suspects: Set[Long])

  /** Cluster one record set with the guardrail loop of §5.2: reject
    * unacceptable answers, regenerate the (reordered) set, retry up to
    * `maxRegens` times, keep the best (fewest-flags) draw, and discard
    * the placement of any record still flagged.
    */
  def clusterWithGuardrail(set: Vector[Record], llm: LLMClient, p: ERParams,
                           fewShot: Int = 0): Guarded = {
    var order  = set
    var result = llm.clusterSet(order, fewShot)
    var best   = result
    var bestFlags = if (p.useMDG) MDG.misclustered(result, p.coherenceFloor).size else 0
    var calls  = 1
    var tries  = 0
    while (p.useMDG && tries < p.maxRegens && bestFlags > 0) {
      order = MDG.regenerate(result, p.coherenceFloor)
      result = llm.clusterSet(order, fewShot)
      calls += 1
      tries += 1
      val flags = MDG.misclustered(result, p.coherenceFloor).size
      if (flags < bestFlags) { best = result; bestFlags = flags }
    }
    result = best
    if (p.useMDG && bestFlags > 0) {
      // Final fallback: every draw was rejected — keep the best one, but
      // discard (split, and mark suspect) only the members that are
      // incoherent in absolute terms: the residue of merge
      // hallucinations. Borderline relative flags are trusted — on dirty
      // data the LLM outranks the embedding signal there. A discarded
      // placement is neither a merge nor a separation; later hierarchy
      // levels get to decide it afresh.
      val bad = MDG.floorIncoherent(result, p.coherenceFloor).map(_.id).toSet
      if (bad.nonEmpty) {
        val kept  = result.clusters.map(_.filterNot(r => bad(r.id))).filter(_.nonEmpty)
        val split = result.records.filter(r => bad(r.id)).map(Vector(_))
        return Guarded(Clustering(kept ++ split), calls, bad)
      }
    }
    Guarded(result, calls, Set.empty)
  }

  /** Resolve one block end-to-end. Every level asks its sets with the
    * guardrail and applies each answer with `CMR.applyAnswer`; level 0
    * asks about the records as singleton clusters. The clusters an answer
    * forms are named by the level: level 0 numbers each afresh, later
    * levels keep an unmerged cluster's id and number a merged one afresh.
    */
  def resolve(blockId: Long, block: Vector[Record], llm: LLMClient, p: ERParams,
              fewShot: Int = 0): BlockResult = {
    if (block.size <= 1) {
      return BlockResult(blockId, block.map(_.id -> 0).toMap, llm.usage, Vector.empty)
    }

    var idCounter = 0L
    def fresh(g: Vector[CMR.HCluster]): CMR.HCluster = {
      idCounter += 1
      CMR.HCluster(idCounter, g.flatMap(_.members))
    }

    // Each cluster is one component; separations are anti-transitivity.
    val uf           = new UnionFind(block.map(_.id))
    val setsPerLevel = Vector.newBuilder[Int]

    /** Ask each set and apply its answer; the groups each set formed. */
    def ask(sets: Vector[Vector[CMR.HCluster]]): Vector[Vector[Vector[CMR.HCluster]]] = {
      var calls = 0
      val out = sets.map { set =>
        val g = clusterWithGuardrail(set.map(_.rep), llm, p, fewShot)
        calls += g.calls
        CMR.applyAnswer(set, g.result, uf, g.suspects)
      }
      setsPerLevel += calls
      out
    }

    // ---- Level 0: NRS record sets over the raw records ----
    var clusters = ask(NRS.allSets(block, p).map(_.map(r => CMR.HCluster(r.id, Vector(r)))))
      .flatten.map(fresh)

    // ---- Hierarchical merging levels ----
    var level    = 0
    var progress = true
    val maxLevels = 5 // paper's deepest hierarchy (Table 3: Alaska, level 5)
    while (progress && level < maxLevels && clusters.size > 1) {
      level += 1
      val (sets, leftovers) = CMR.nextRoundSets(clusters, uf, p)
      if (sets.isEmpty) { progress = false }
      else {
        val groups = ask(sets)
        clusters = groups.flatten.map(g => if (g.size == 1) g.head else fresh(g)) ++ leftovers
        // exit condition: only singletons emerged
        progress = sets.zip(groups).exists { case (in, out) => out.size < in.size }
      }
    }

    val assignment = clusters.zipWithIndex.flatMap {
      case (c, i) => c.members.map(_.id -> i)
    }.toMap
    // Defensive: every input record must be assigned exactly once.
    require(assignment.size == block.size,
      s"block $blockId: ${assignment.size} assignments for ${block.size} records")

    BlockResult(blockId, assignment, llm.usage, setsPerLevel.result())
  }
}
