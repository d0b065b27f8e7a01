package repro.core

/** Core data model shared by the whole reproduction.
  *
  * A [[Record]] carries its hidden ground-truth entity id (`entityId`).
  * Only the data generator, the simulated LLM's noisy oracle and the
  * evaluation metrics look at it; every algorithm under test (NRS, MDG,
  * CMR, blocking, baselines) treats it as opaque.
  */
final case class Record(
    id: Long,
    entityId: Long,
    text: String,
    vec: Array[Float],
) {
  /** Cosine similarity against another record (vectors are L2-normalised). */
  def cos(o: Record): Double = {
    var s = 0.0; var i = 0
    val a = vec; val b = o.vec
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }
  override def equals(o: Any): Boolean = o match {
    case r: Record => r.id == id
    case _         => false
  }
  override def hashCode(): Int = id.hashCode
}

/** A clustering of some records: each inner seq is one predicted cluster. */
final case class Clustering(clusters: Vector[Vector[Record]]) {
  def records: Vector[Record]   = clusters.flatten
  def size: Int                 = clusters.size
  def assignment: Map[Long, Int] =
    clusters.zipWithIndex.flatMap { case (c, i) => c.map(_.id -> i) }.toMap
}

/** Key-factor parameters of the in-context clustering design space (§4). */
final case class ERParams(
    setSize: Int = 9,          // Ss
    setDiversity: Int = 4,     // Sd
    useMDG: Boolean = true,
    maxRegens: Int = 2,        // record-set regeneration retries after MDG reject
    /** MDG coherence floor: a cluster member whose intra-similarity
      * falls below this is flagged even with no rival cluster (set from
      * the blocking threshold by the driver). */
    coherenceFloor: Double = 0.0,
    seed: Long = 42L,
)

object ERParams {
  val default: ERParams = ERParams()
}

/** Accumulated LLM usage for one end-to-end run. */
final case class Usage(
    apiCalls: Long = 0L,
    inputTokens: Long = 0L,
    outputTokens: Long = 0L,
    latencyMs: Double = 0.0,
) {
  def +(o: Usage): Usage =
    Usage(apiCalls + o.apiCalls, inputTokens + o.inputTokens,
          outputTokens + o.outputTokens, latencyMs + o.latencyMs)
  def tokens: Long = inputTokens + outputTokens
  /** gpt-4o-mini pricing: USD 0.15 / 1M input, 0.60 / 1M output tokens. */
  def costUsd: Double = inputTokens * 0.15e-6 + outputTokens * 0.60e-6
  def timeMin: Double = latencyMs / 60000.0
}

object Usage { val zero: Usage = Usage() }

/** Result of resolving one block: local cluster assignment + telemetry.
  * `usage` is the resolving client's whole usage: every `LLMCER.BlockFn`
  * gives each block a fresh client.
  */
final case class BlockResult(
    blockId: Long,
    assignment: Map[Long, Int],        // recordId -> local cluster index
    usage: Usage,
    setsPerLevel: Vector[Int],         // record sets generated at each hierarchy level
)
