package repro.core

import scala.collection.mutable

/** Exact threshold-based similarity index over the vocabulary `D` (§IV).
  *
  * For a query token `q`, `neighbors(q, α)` returns every vocabulary token
  * with `sim(q, t) ≥ α`, in descending similarity (ties broken by token for
  * determinism). This is the abstraction the paper plugs Faiss / minhash-LSH
  * into; Koios only requires that results are exact and ordered.
  */
trait SimilarityIndex {
  def neighbors(q: String, alpha: Double): Array[(String, Double)]

  /** `neighbors` of each query token, in query order. An index may score the
    * tokens together; the lists are the same as one `neighbors` call each.
    */
  def neighborsAll(qs: Array[String], alpha: Double): Array[Array[(String, Double)]] =
    qs.map(neighbors(_, alpha))
}

object SimilarityIndex {
  /** Descending similarity, ties by token: a total order on a neighbour list,
    * whose tokens are distinct, so any sort gives the same list.
    */
  private val BySimDesc: java.util.Comparator[(String, Double)] = (a, b) =>
    if (a._2 > b._2) -1 else if (a._2 < b._2) 1 else a._1.compareTo(b._1)

  private[core] def sorted(xs: Array[(String, Double)]): Array[(String, Double)] = {
    java.util.Arrays.sort(xs, BySimDesc)
    xs
  }
}

/** Exact brute-force index — our substitute for the paper's GPU Faiss index.
  *
  * Computes `sim(q, t)` for every vocabulary token and sorts descending.
  * Out-of-vocabulary query tokens yield only their identical-token match
  * (similarity 1), which realizes the paper's rule that a query element
  * always matches itself (§V).
  *
  * For [[EmbeddingCosineSimilarity]] the vocabulary vectors are copied once
  * into one row-major `Array[Float]`, and [[neighborsAll]] scores four query
  * tokens against two vocabulary rows per pass (the blocked exact scan of
  * Johnson, Douze & Jégou, "Billion-scale similarity search with GPUs";
  * blocking the rows for the cache made no measurable difference at our
  * vocabulary sizes, a few MB of vectors). Each score is the sum of
  * `q(i).toDouble * v(i)` in dimension order, clamped into [0, 1], the same
  * operations as [[EmbeddingCosineSimilarity.dotClamped]], so the scores are
  * bit-identical to it.
  *
  * Any other similarity is called once per (query token, vocabulary token)
  * and must keep its contract (values in [0, 1], `sim(x, x) = 1`); a value
  * that breaks it throws `IllegalArgumentException`, since the refinement
  * bounds assume it.
  */
final class BruteForceSimilarityIndex(vocab: Array[String], simFn: TokenSimilarity)
    extends SimilarityIndex {

  private val embedding: Option[EmbeddingCosineSimilarity] = simFn match {
    case e: EmbeddingCosineSimilarity => Some(e)
    case _                            => None
  }
  private val dim: Int =
    embedding.flatMap(_.vectors.valuesIterator.nextOption()).fold(0)(_.length)

  private val rowOf = new java.util.HashMap[String, Integer](2 * vocab.length)
  // `vecRows(k)` is the vocabulary row of the k-th vector, stored at
  // `vecs(k * dim until (k + 1) * dim)`; the array is padded with one zero
  // vector to an even count for the two-row kernel. `bareRows` are the
  // vocabulary rows without a vector. Built in one pass whose per-row work is
  // a lambda, which the JIT compiles; a loop in a constructor runs
  // interpreted.
  private val (vecRows, vecs, bareRows) = {
    val vectors = embedding.fold(Map.empty[String, Array[Float]])(_.vectors)
    val withVec = Array.newBuilder[Int]
    val bare = Array.newBuilder[Int]
    val flat = new Array[Float]((vocab.length + 1) * dim)
    var n = 0
    vocab.indices.foreach { i =>
      rowOf.put(vocab(i), i)
      val v = vectors.getOrElse(vocab(i), null)
      if (v == null) bare += i
      else {
        require(v.length == dim, s"vector of '${vocab(i)}' has ${v.length} dimensions, not $dim")
        System.arraycopy(v, 0, flat, n * dim, dim)
        withVec += i
        n += 1
      }
    }
    (withVec.result(), java.util.Arrays.copyOf(flat, (n + n % 2) * dim), bare.result())
  }
  require(rowOf.size == vocab.length, "vocabulary tokens must be distinct")

  /** Vocabulary row of `t`, or -1. */
  private def row(t: String): Int = rowOf.getOrDefault(t, -1)

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] =
    neighborsAll(Array(q), alpha)(0)

  override def neighborsAll(qs: Array[String], alpha: Double): Array[Array[(String, Double)]] =
    embedding match {
      case Some(e) => embeddingProbe(e, qs, alpha)
      case None    => qs.map(genericProbe(_, alpha))
    }

  private def genericProbe(q: String, alpha: Double): Array[(String, Double)] = {
    val self = row(q)
    val buf = new mutable.ArrayBuffer[(String, Double)]()
    var i = 0
    while (i < vocab.length) {
      val s = simFn.sim(q, vocab(i))
      if (!(s >= 0.0 && s <= 1.0))
        throw new IllegalArgumentException(
          s"similarity contract broken: sim($q, ${vocab(i)}) = $s is not in [0, 1]")
      if (i == self && s != 1.0)
        throw new IllegalArgumentException(
          s"similarity contract broken: sim($q, $q) = $s, but sim(x, x) must be 1")
      if (s >= alpha) buf += ((vocab(i), s))
      i += 1
    }
    SimilarityIndex.sorted(buf.toArray)
  }

  private def embeddingProbe(e: EmbeddingCosineSimilarity, qs: Array[String],
                             alpha: Double): Array[Array[(String, Double)]] = {
    // Query tokens with a vector, as doubles, padded with zero vectors to a
    // multiple of four for the kernel.
    val scored = qs.filter(e.vectors.contains)
    val nq = (scored.length + 3) / 4 * 4
    val qmat = new Array[Double](nq * dim)
    for (j <- scored.indices) {
      val qv = e.vectors(scored(j))
      require(qv.length == dim, s"vector of '${scored(j)}' has ${qv.length} dimensions, not $dim")
      for (d <- 0 until dim) qmat(j * dim + d) = qv(d).toDouble
    }
    val found = Array.fill(nq)(new mutable.ArrayBuffer[(String, Double)]())
    val self = Array.tabulate(nq)(j => if (j < scored.length) row(scored(j)) else -1)
    var g = 0
    while (g < nq) { score4x2(qmat, g, alpha, found, self); g += 4 }

    val lists = scored.indices.map { j =>
      if (self(j) >= 0 && 1.0 >= alpha) found(j) += ((scored(j), 1.0))
      // A token without a vector has similarity 0 to every other token.
      if (0.0 >= alpha) bareRows.foreach(r => found(j) += ((vocab(r), 0.0)))
      scored(j) -> SimilarityIndex.sorted(found(j).toArray)
    }.toMap
    // A query token without a vector matches only the identical token.
    qs.map(q => lists.getOrElse(q, if (row(q) >= 0) Array((q, 1.0)) else Array.empty[(String, Double)]))
  }

  /** Scores query tokens `g until g + 4` of `qmat` against every vector row,
    * two rows at a time: eight independent sums, each in dimension order.
    */
  private def score4x2(qmat: Array[Double], g: Int, alpha: Double,
                       found: Array[mutable.ArrayBuffer[(String, Double)]],
                       self: Array[Int]): Unit = {
    // Pre-filter on the raw sum: for α > 0, clamp(s) ≥ α implies s ≥ α.
    val floor = if (alpha > 0.0) alpha else Double.NegativeInfinity
    // Appends row `r` to query token `j`'s list if its clamped score is ≥ α;
    // the query token itself (scored 1 by the caller) and the pad row are not.
    def hit(j: Int, r: Int, raw: Double): Unit = {
      val s = math.min(1.0, math.max(0.0, raw))
      if (s >= alpha && r < vecRows.length && vecRows(r) != self(j))
        found(j) += ((vocab(vecRows(r)), s))
    }
    val q0 = g * dim; val q1 = q0 + dim; val q2 = q1 + dim; val q3 = q2 + dim
    val rows = vecs.length / math.max(1, dim)
    var r = 0
    while (r < rows) {
      val a = r * dim; val b = a + dim
      var a0 = 0.0; var a1 = 0.0; var a2 = 0.0; var a3 = 0.0
      var b0 = 0.0; var b1 = 0.0; var b2 = 0.0; var b3 = 0.0
      var d = 0
      while (d < dim) {
        val x = vecs(a + d).toDouble
        val y = vecs(b + d).toDouble
        val w0 = qmat(q0 + d); val w1 = qmat(q1 + d); val w2 = qmat(q2 + d); val w3 = qmat(q3 + d)
        a0 += w0 * x; a1 += w1 * x; a2 += w2 * x; a3 += w3 * x
        b0 += w0 * y; b1 += w1 * y; b2 += w2 * y; b3 += w3 * y
        d += 1
      }
      if (a0 >= floor) hit(g, r, a0)
      if (a1 >= floor) hit(g + 1, r, a1)
      if (a2 >= floor) hit(g + 2, r, a2)
      if (a3 >= floor) hit(g + 3, r, a3)
      if (b0 >= floor) hit(g, r + 1, b0)
      if (b1 >= floor) hit(g + 1, r + 1, b1)
      if (b2 >= floor) hit(g + 2, r + 1, b2)
      if (b3 >= floor) hit(g + 3, r + 1, b3)
      r += 2
    }
  }
}

/** Prefix-filter index for q-gram Jaccard similarity — the paper's setup for
  * the fuzzy comparison (§VIII-B), where the token stream is produced with
  * set-similarity-join techniques instead of an embedding index: a gram
  * inverted index over the vocabulary is probed with the prefix of the query
  * token's gram set (`|g| − ceil(α·|g|) + 1` grams in a fixed global order),
  * which is guaranteed to hit every token with Jaccard ≥ α; survivors are
  * verified exactly.
  */
final class QGramPrefixIndex(vocab: Array[String], jaccard: JaccardQGramSimilarity)
    extends SimilarityIndex {

  private val gramIndex: Map[String, Array[String]] = {
    val m = scala.collection.mutable.HashMap.empty[String, mutable.ArrayBuffer[String]]
    vocab.foreach { t =>
      jaccard.grams(t).foreach(g => m.getOrElseUpdate(g, new mutable.ArrayBuffer[String]()) += t)
    }
    m.view.mapValues(_.toArray).toMap
  }
  private val vocabSet: Set[String] = vocab.toSet

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] = {
    val gs = jaccard.grams(q).toArray.sorted
    val prefixLen = math.max(1, gs.length - math.ceil(alpha * gs.length).toInt + 1)
    val cands = mutable.HashSet.empty[String]
    gs.take(prefixLen).foreach(g => gramIndex.get(g).foreach(cands ++= _))
    if (vocabSet.contains(q)) cands += q
    SimilarityIndex.sorted(cands.iterator
      .map(t => (t, jaccard.sim(q, t)))
      .filter(_._2 >= alpha)
      .toArray)
  }
}
