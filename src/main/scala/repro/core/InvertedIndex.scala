package repro.core

/** The inverted index `I_s` (§IV) over integer token ids.
  *
  * Each vocabulary token gets an `Int` id once, at build. Per id the index
  * keeps the posting list of the sets (positions into the repository array)
  * that contain the token, and, in a parallel array, the token's position in
  * each of those sets. Per set it keeps the set's token ids in token order, so
  * `tokenIds(i)(positionsOf(t)(p)) == t` for `i = postingsOf(t)(p)`. The
  * candidate phase reads only these arrays; strings stay at its boundary.
  */
final class InvertedIndex private (
    ids: java.util.HashMap[String, Integer],
    postings: Array[Array[Int]],
    positions: Array[Array[Int]],
    recordIds: Array[Array[Int]],
    val vocabulary: Array[String]) extends Serializable {

  /** Id of `token`, or -1 if the token is not in the vocabulary. */
  def idOf(token: String): Int = {
    val id = ids.get(token)
    if (id == null) -1 else id.intValue
  }

  def contains(token: String): Boolean = ids.containsKey(token)

  /** Ascending repository positions of the sets containing token `id`. */
  def postingsOf(id: Int): Array[Int] = postings(id)

  /** `positionsOf(id)(p)` is token `id`'s position in set `postingsOf(id)(p)`. */
  def positionsOf(id: Int): Array[Int] = positions(id)

  /** Token ids of the set at repository position `record`, in token order. */
  def tokenIds(record: Int): Array[Int] = recordIds(record)

  /** Number of distinct tokens |D|. */
  def vocabularySize: Int = vocabulary.length

  /** The largest set's cardinality; 0 for an empty repository. */
  val maxSetSize: Int = recordIds.foldLeft(0)((m, ids) => math.max(m, ids.length))
}

object InvertedIndex {
  /** Builds the index over a repository; `records(i)` is addressed by postings
    * containing `i`. Ids are assigned in order of first sight; the vocabulary
    * order is sorted, so downstream iteration is reproducible.
    *
    * One pass over the records assigns ids, writes each record's ids and
    * counts postings per id; a second pass over the ids fills the posting and
    * position arrays in record order (a counting sort).
    */
  def build(records: IndexedSeq[SetRecord]): InvertedIndex = {
    val ids = new java.util.HashMap[String, Integer]()
    val tokens = Array.newBuilder[String]
    var counts = new Array[Int](1024)
    val recordIds = new Array[Array[Int]](records.length)
    var i = 0
    while (i < records.length) {
      val toks = records(i).tokens
      val rids = new Array[Int](toks.length)
      var j = 0
      while (j < toks.length) {
        val known = ids.get(toks(j))
        val id =
          if (known != null) known.intValue
          else {
            val fresh = ids.size
            ids.put(toks(j), fresh)
            tokens += toks(j)
            if (fresh == counts.length) counts = java.util.Arrays.copyOf(counts, 2 * fresh)
            fresh
          }
        rids(j) = id
        counts(id) += 1
        j += 1
      }
      recordIds(i) = rids
      i += 1
    }
    val n = ids.size
    val postings = Array.tabulate(n)(id => new Array[Int](counts(id)))
    val positions = Array.tabulate(n)(id => new Array[Int](counts(id)))
    val fill = new Array[Int](n)
    i = 0
    while (i < recordIds.length) {
      val rids = recordIds(i)
      var j = 0
      while (j < rids.length) {
        val id = rids(j)
        postings(id)(fill(id)) = i
        positions(id)(fill(id)) = j
        fill(id) += 1
        j += 1
      }
      i += 1
    }
    new InvertedIndex(ids, postings, positions, recordIds, tokens.result().sorted)
  }
}
