package repro.core

/** The similarity cache of one search (§VIII-A3): per token id of one
  * [[InvertedIndex]] (in [[Matching.semanticOverlapDirect]], per column of
  * one record), the (query position, sim ≥ α) edges the token stream emitted
  * to the token, on primitive arrays, so the matrix builder reads a record's
  * edges through `inverted.tokenIds` without hashing a string. A token's
  * edges form a list, newest first: `head(id)`, then `next(e)` until 0.
  * One table per search, written by its candidate phase only; after that,
  * verification's helper threads read it concurrently.
  */
final class Edges(tokenCount: Int) {
  private val heads = new Array[Int](tokenCount) // 0: no edge; edges count from 1
  private var links = new Array[Int](64)
  private var qs = new Array[Int](64)
  private var sims = new Array[Double](64)
  private var used = 0

  /** Adds edge (qIdx, sim) to token `id`; true iff it is the token's first. */
  def add(id: Int, qIdx: Int, sim: Double): Boolean = {
    used += 1
    if (used == qs.length) {
      links = java.util.Arrays.copyOf(links, 2 * used)
      qs = java.util.Arrays.copyOf(qs, 2 * used)
      sims = java.util.Arrays.copyOf(sims, 2 * used)
    }
    links(used) = heads(id); qs(used) = qIdx; sims(used) = sim; heads(id) = used
    links(used) == 0
  }

  /** Newest edge of token `id`; 0 if none. */
  def head(id: Int): Int = heads(id)
  /** The same token's edge added before `e`; 0 if none. */
  def next(e: Int): Int = links(e)
  def qIdx(e: Int): Int = qs(e)
  def sim(e: Int): Double = sims(e)
}
