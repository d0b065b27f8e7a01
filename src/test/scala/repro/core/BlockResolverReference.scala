package repro.core

import repro.llm.LLMClient

/** The per-block loop as it was before level 0 went through
  * `CMR.applyAnswer`, kept verbatim: level 0 applied each answer with its
  * own unions and separations, and `applyAnswer` separated every member
  * pair of two groups before their unions and named the merged clusters
  * itself. Calls to unchanged helpers (`clusterWithGuardrail`, `separate`)
  * are qualified. `BlockResolverSpec` holds `BlockResolver.resolve` to it:
  * the same `BlockResult`, field for field.
  */
object BlockResolverReference {

  /** Resolve one block end-to-end. */
  def resolve(blockId: Long, block: Vector[Record], llm: LLMClient, p: ERParams,
              fewShot: Int = 0): BlockResult = {
    if (block.size <= 1) {
      return BlockResult(blockId, block.map(_.id -> 0).toMap, llm.usage, Vector.empty)
    }

    var idCounter = 0L
    def nextId(): Long = { idCounter += 1; idCounter }

    // Each cluster is one component; separations are anti-transitivity.
    val uf           = new UnionFind(block.map(_.id))
    val setsPerLevel = Vector.newBuilder[Int]

    // ---- Level 0: NRS record sets over the raw records ----
    val level0Sets = NRS.allSets(block, p)
    var level0Calls = 0
    var clusters: Vector[CMR.HCluster] = level0Sets.flatMap { set =>
      val g = BlockResolver.clusterWithGuardrail(set, llm, p, fewShot)
      level0Calls += g.calls
      val hcs = g.result.clusters.map { members =>
        members.tail.foreach(r => uf.union(members.head.id, r.id))
        CMR.HCluster(nextId(), members)
      }
      // Anti-transitivity between the distinct clusters of one answer —
      // except suspect singletons, whose placement was discarded.
      def suspect(c: CMR.HCluster) = c.members.size == 1 && g.suspects(c.members.head.id)
      for {
        i <- hcs.indices; j <- hcs.indices if i < j
        if !suspect(hcs(i)) && !suspect(hcs(j))
      } CMR.separate(uf, hcs(i), hcs(j))
      hcs
    }
    setsPerLevel += level0Calls

    // ---- Hierarchical merging levels ----
    var level    = 0
    var progress = true
    val maxLevels = 5 // paper's deepest hierarchy (Table 3: Alaska, level 5)
    while (progress && level < maxLevels && clusters.size > 1) {
      level += 1
      val (sets, leftovers) = CMR.nextRoundSets(clusters, uf, p)
      if (sets.isEmpty) { progress = false }
      else {
        var calls   = 0
        var merges  = 0
        val merged  = Vector.newBuilder[CMR.HCluster]
        sets.foreach { inputSet =>
          val reps = inputSet.map(_.rep)
          val g = BlockResolver.clusterWithGuardrail(reps, llm, p, fewShot)
          calls += g.calls
          val out = applyAnswer(inputSet, g.result, uf, () => nextId(), g.suspects)
          if (out.size < inputSet.size) merges += inputSet.size - out.size
          merged ++= out
        }
        setsPerLevel += calls
        clusters = merged.result() ++ leftovers
        if (merges == 0) progress = false // exit condition: only singletons emerged
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

  /** Apply one LLM answer over a set of representatives: co-clustered
    * representatives merge their clusters (a union in `uf`); every
    * unmerged co-input pair becomes a recorded separation. Returns the
    * set's merged clusters.
    */
  def applyAnswer(
      inputSet: Vector[CMR.HCluster],
      repClusters: Clustering,
      uf: UnionFind,
      nextId: () => Long,
      suspects: Set[Long] = Set.empty,
  ): Vector[CMR.HCluster] = {
    val byRep = inputSet.map(c => c.rep.id -> c).toMap
    val groups: Vector[Vector[CMR.HCluster]] =
      repClusters.clusters.map(_.flatMap(r => byRep.get(r.id)))
        .filter(_.nonEmpty)
    // Record anti-transitivity between the groups of this answer —
    // skipping suspect groups (guardrail-discarded placements carry no
    // separation evidence).
    def isSuspect(g: Vector[CMR.HCluster]) =
      g.size == 1 && suspects(g.head.rep.id)
    for {
      i <- groups.indices; j <- groups.indices if i < j
      if !isSuspect(groups(i)) && !isSuspect(groups(j))
      a <- groups(i); b <- groups(j)
    } CMR.separate(uf, a, b)
    groups.map { g =>
      if (g.size == 1) g.head
      else {
        g.tail.foreach(c => uf.union(g.head.members.head.id, c.members.head.id))
        CMR.HCluster(nextId(), g.flatMap(_.members))
      }
    }
  }
}
