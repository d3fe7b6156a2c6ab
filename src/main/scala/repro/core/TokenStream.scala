package repro.core

/** One token-stream tuple: query token position, vocabulary token, similarity. */
final case class StreamTuple(qIdx: Int, token: String, sim: Double)

/** The token stream `I_e` (§IV): emits `(q, t, sim(q, t))` tuples over the
  * whole vocabulary in globally descending similarity, stopping below `α`.
  *
  * One shared [[SimilarityIndex]] over `D` returns every query token's whole
  * descending neighbour list (already α-filtered) at once, so the paper's
  * |Q|-way merge is one stable sort of all the lists' tuples by descending
  * similarity, then query position: each list is sorted, so (−sim, qIdx,
  * list position) is exactly the order the merge emits, and runs are
  * deterministic.
  */
final class TokenStream(query: Array[String], index: SimilarityIndex, alpha: Double)
    extends Iterator[StreamTuple] {

  require(query.distinct.length == query.length, "query tokens must be distinct")

  private val tuples: Array[StreamTuple] = {
    val lists = index.neighborsAll(query, alpha)
    val all = new Array[StreamTuple](lists.iterator.map(_.length).sum)
    var i = 0
    for (qi <- lists.indices; (t, s) <- lists(qi)) { all(i) = StreamTuple(qi, t, s); i += 1 }
    // Stable, so equal similarities keep (qIdx, list position) order.
    java.util.Arrays.sort(all, (a: StreamTuple, b: StreamTuple) => java.lang.Double.compare(b.sim, a.sim))
    all
  }

  private var emitted = 0

  override def hasNext: Boolean = emitted < tuples.length

  override def next(): StreamTuple = {
    val t = tuples(emitted)
    emitted += 1
    t
  }
}
