package repro.embed

import java.util.regex.Pattern

/** Lightweight text similarity substrate.
  *
  * Stands in for the paper's all-MiniLM-L6-v2 sentence embeddings
  * (DESIGN.md §2): 64-dimensional feature-hashed character-3-gram
  * vectors, L2-normalised. Deterministic, dependency-free, and good
  * enough to rank same-entity record pairs above different-entity ones
  * on dirty text — the only property blocking/MDG/CMR rely on.
  */
object Embed {
  val Dim = 64

  private val NonAlnum = Pattern.compile("[^a-z0-9]+")
  private val Spaces   = Pattern.compile("\\s+")

  /** Lowercased alphanumeric word tokens. */
  def tokens(text: String): Vector[String] =
    NonAlnum.split(text.toLowerCase).iterator.filter(_.nonEmpty).toVector

  /** Character 3-grams of the padded, lowercased text. */
  def ngrams(text: String, n: Int = 3): Vector[String] = {
    val t = "\u0001" + Spaces.matcher(text.toLowerCase).replaceAll(" ").trim + "\u0002"
    if (t.length < n) Vector(t) else (0 to t.length - n).map(i => t.substring(i, i + n)).toVector
  }

  /** Deterministic signed feature hashing of char 3-grams, L2-normalised. */
  def embed(text: String): Array[Float] = {
    val v = new Array[Float](Dim)
    ngrams(text).foreach { g =>
      val h    = scala.util.hashing.MurmurHash3.stringHash(g, 0x9747b28c)
      val idx  = math.floorMod(h, Dim)
      val sign = if (((h >>> 16) & 1) == 0) 1f else -1f
      v(idx) += sign
    }
    val norm = math.sqrt(v.map(x => x.toDouble * x).sum)
    if (norm > 0) { var i = 0; while (i < Dim) { v(i) = (v(i) / norm).toFloat; i += 1 } }
    v
  }

  def cosine(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Token-set Jaccard similarity — the filtering path's metric (§5.1). */
  def jaccard(a: String, b: String): Double = jaccard(tokens(a).toSet, tokens(b).toSet)

  /** Jaccard similarity of two token sets: |a ∩ b| / |a ∪ b|, and 1 for
    * two empty sets.
    */
  def jaccard(ta: Set[String], tb: Set[String]): Double =
    if (ta.isEmpty && tb.isEmpty) 1.0
    else {
      val inter = ta.count(tb.contains)
      inter.toDouble / (ta.size + tb.size - inter)
    }

  /** Rough GPT-style token count: ~4 characters per token. */
  def llmTokens(text: String): Long = math.max(1L, math.round(text.length / 4.0))
}
