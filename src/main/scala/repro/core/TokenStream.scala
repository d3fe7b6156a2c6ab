package repro.core

import scala.collection.mutable

/** One token-stream tuple: query token position, vocabulary token, similarity. */
final case class StreamTuple(qIdx: Int, token: String, sim: Double)

/** The token stream `I_e` (§IV): emits `(q, t, sim(q, t))` tuples over the
  * whole vocabulary in globally descending similarity, stopping below `α`.
  *
  * Realized exactly as in the paper: one shared [[SimilarityIndex]] over `D`
  * and a priority queue of size |Q| holding, per query token, the next unseen
  * most-similar vocabulary token. Popping an entry advances only that query
  * token's stream. Ties are broken by (qIdx, token) so runs are deterministic.
  */
final class TokenStream(query: Array[String], index: SimilarityIndex, alpha: Double)
    extends Iterator[StreamTuple] {
  import TokenStream.Entry

  require(query.distinct.length == query.length, "query tokens must be distinct")

  // Per query token: descending neighbor list (already α-filtered).
  private val lists: Array[Array[(String, Double)]] = index.neighborsAll(query, alpha)

  private val pq = mutable.PriorityQueue.empty[Entry](Entry.ByNext)

  private var emitted = 0L

  query.indices.foreach { qi =>
    if (lists(qi).nonEmpty) pq.enqueue(Entry(lists(qi)(0)._2, qi, 0))
  }

  override def hasNext: Boolean = pq.nonEmpty

  override def next(): StreamTuple = {
    val e = pq.dequeue()
    val (tok, s) = lists(e.qIdx)(e.pos)
    val nxt = e.pos + 1
    if (nxt < lists(e.qIdx).length) pq.enqueue(Entry(lists(e.qIdx)(nxt)._2, e.qIdx, nxt))
    emitted += 1
    StreamTuple(e.qIdx, tok, s)
  }

  /** Number of tuples emitted so far (for stats / space accounting). */
  def tuplesEmitted: Long = emitted

  /** Aggregate buffered-list size — the O(|D|·|Q|) term of §VII-B. */
  def bufferedPairs: Long = lists.map(_.length.toLong).sum
}

object TokenStream {
  /** The next unseen neighbour `pos` of query token `qIdx`, with its similarity. */
  private final case class Entry(sim: Double, qIdx: Int, pos: Int)

  private object Entry {
    /** Higher similarity first, then lower query position. */
    val ByNext: Ordering[Entry] = (a, b) => {
      val c = java.lang.Double.compare(a.sim, b.sim)
      if (c != 0) c else Integer.compare(b.qIdx, a.qIdx)
    }
  }
}
