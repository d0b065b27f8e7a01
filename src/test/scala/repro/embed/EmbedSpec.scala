package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class EmbedSpec extends AnyFunSuite with PropSupport {

  test("tokens lowercases and splits on non-alphanumerics") {
    assert(Embed.tokens("Hello, World-42!") == Vector("hello", "world", "42"))
  }
  test("tokens of empty / punctuation-only text is empty") {
    assert(Embed.tokens("").isEmpty)
    assert(Embed.tokens("—!?").isEmpty)
  }

  test("ngrams produces character 3-grams over the padded text") {
    assert(Embed.ngrams("abcd") ==
      Vector("\u0001ab", "abc", "bcd", "cd\u0002"))
  }
  test("ngrams of a short string yields its padded boundary grams") {
    assert(Embed.ngrams("ab") == Vector("\u0001ab", "ab\u0002"))
  }
  test("ngrams collapses whitespace") {
    assert(Embed.ngrams("a   b") == Embed.ngrams("a b"))
  }

  test("embed returns an L2-normalised vector of the right dimension") {
    val v = Embed.embed("some record text")
    assert(v.length == Embed.Dim)
    val norm = math.sqrt(v.map(x => x.toDouble * x).sum)
    assert(math.abs(norm - 1.0) < 1e-5)
  }
  test("embed is deterministic") {
    assert(Embed.embed("alpha beta").sameElements(Embed.embed("alpha beta")))
  }
  test("identical texts have cosine 1; disjoint texts are far apart") {
    val a = Embed.embed("kamilu venqui belgan")
    val b = Embed.embed("kamilu venqui belgan")
    val c = Embed.embed("zzz qqq xxx www yyy")
    assert(math.abs(Embed.cosine(a, b) - 1.0) < 1e-5)
    assert(Embed.cosine(a, c) < 0.6)
  }
  test("near-duplicate text has higher cosine than unrelated text") {
    val base = "kamilu venqui belgan dorsel prazen"
    val dup  = "kamilu venqui belgan dorsel"      // token dropped
    val far  = "tosfir nolhex drapol quimar zenka"
    val vb = Embed.embed(base)
    assert(Embed.cosine(vb, Embed.embed(dup)) > Embed.cosine(vb, Embed.embed(far)))
  }

  test("jaccard of identical token sets is 1, disjoint is 0") {
    assert(Embed.jaccard("a b c", "c b a") == 1.0)
    assert(Embed.jaccard("a b", "c d") == 0.0)
    assert(Embed.jaccard("", "") == 1.0)
  }
  test("jaccard matches hand computation") {
    assert(math.abs(Embed.jaccard("a b c", "b c d") - 2.0 / 4) < 1e-12)
  }

  test("llmTokens approximates chars/4 with a floor of 1") {
    assert(Embed.llmTokens("") == 1L)
    assert(Embed.llmTokens("x" * 40) == 10L)
  }

  test("property: cosine of embeddings is within [-1, 1]") {
    val txt = Gen.listOf(Gen.alphaNumStr).map(_.mkString(" "))
    checkProp(Prop.forAll(txt, txt) { (a, b) =>
      val c = Embed.cosine(Embed.embed(a), Embed.embed(b))
      c >= -1.0 - 1e-6 && c <= 1.0 + 1e-6
    })
  }
  test("property: jaccard is symmetric and within [0, 1]") {
    val txt = Gen.listOf(Gen.oneOf("a", "b", "c", "d", "e")).map(_.mkString(" "))
    checkProp(Prop.forAll(txt, txt) { (a, b) =>
      val j = Embed.jaccard(a, b)
      j >= 0 && j <= 1 && math.abs(j - Embed.jaccard(b, a)) < 1e-12
    })
  }

  test("property: Jaccard on interned sorted token ids equals Embed.jaccard bit for bit") {
    // A small vocabulary with case variants makes repeated and shared
    // tokens likely; the empty and punctuation-only texts have no tokens.
    val word = Gen.oneOf("a", "A", "ab", "x1", "zz", "ZZ", "42", "the")
    val sep  = Gen.oneOf(" ", ", ", "-", "  ")
    val text = Gen.frequency(
      1 -> Gen.oneOf("", "  ", "—!?"),
      6 -> Gen.listOf(Gen.zip(word, sep)).map(_.map { case (w, s) => w + s }.mkString))
    val prop = Prop.forAll(text, text) { (a, b) =>
      val ids = scala.collection.mutable.HashMap.empty[String, Int]
      def interned(t: String): Array[Int] =
        Embed.tokens(t).distinct.map(w => ids.getOrElseUpdate(w, ids.size)).sorted.toArray
      val got  = repro.blocking.Blocking.jaccard(interned(a), interned(b))
      val want = Embed.jaccard(Embed.tokens(a).toSet, Embed.tokens(b).toSet)
      Prop(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want)) :|
        s"$got vs $want"
    }
    checkProp(prop, minTests = 500)
  }
}
