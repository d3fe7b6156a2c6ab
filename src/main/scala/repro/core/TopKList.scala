package repro.core

/** Running top-k list of lower bounds (`L_lb`, §III–IV).
  *
  * Holds the k largest current lower-bound values over all candidates.
  * `threshold` is `θ_lb` — the smallest value in a full list, 0 otherwise
  * (Lemma 4 guarantees `θ_lb ≤ θ_k ≤ θ_k*`). Values only increase over a
  * query's lifetime, so evict-smallest maintenance is exact: every id outside
  * the list last reported a value at most the list's minimum, which only
  * grows, so `threshold` is the k-th largest of the ids' latest values
  * whichever of several tied minima is evicted.
  *
  * The list is at most k (value, id) slots on parallel primitive arrays,
  * grown by doubling up to k. A full list answers an update at or below
  * `θ_lb` in O(1): an id in the list already holds at least `θ_lb`, so the
  * update changes nothing. Any other update scans the slots, O(k).
  */
final class TopKList(k: Int) {
  require(k >= 1)

  // Slots 0 until n: vals(s) is the value of ids(s); vals(low) is the minimum.
  private var vals = new Array[Double](math.min(k, 16))
  private var ids = new Array[Long](vals.length)
  private var n = 0
  private var low = 0

  /** Current θ_lb. */
  def threshold: Double = if (n < k) 0.0 else vals(low)

  def size: Int = n

  /** Raises (or inserts) `id`'s lower bound. Returns true iff θ_lb changed. */
  def update(id: Long, lb: Double): Boolean = {
    if (n == k && lb <= vals(low)) return false
    val before = threshold
    var s = 0
    while (s < n && ids(s) != id) s += 1
    if (s < n) vals(s) = math.max(vals(s), lb)
    else {
      if (n < k) { if (n == vals.length) grow(); n += 1 }
      else s = low // evict the minimum
      ids(s) = id; vals(s) = lb
    }
    low = 0
    s = 1
    while (s < n) { if (vals(s) < vals(low)) low = s; s += 1 }
    threshold != before
  }

  private def grow(): Unit = {
    val cap = math.min(k.toLong, 2L * n).toInt
    vals = java.util.Arrays.copyOf(vals, cap)
    ids = java.util.Arrays.copyOf(ids, cap)
  }

  /** Ids currently in the list, descending by lower bound (ties: larger id first). */
  def entries: Seq[(Long, Double)] =
    (0 until n).map(s => (ids(s), vals(s)))
      .sortWith((a, b) => a._2 > b._2 || (a._2 == b._2 && a._1 > b._1))
}
