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
  * The list is a binary min-heap on parallel primitive arrays, grown by
  * doubling up to k slots, with an id → slot hash table (linear probing,
  * at most half full) that boxes nothing, so an update costs O(log k).
  */
final class TopKList(k: Int) {
  require(k >= 1)

  // Heap slots 0 until n: vals(s) is the value of ids(s), vals(parent) ≤ vals(child).
  private var vals = new Array[Double](math.min(k, 16))
  private var ids = new Array[Long](vals.length)
  private var n = 0
  // id → heap slot. A cell is free when its slot is -1.
  private var keys: Array[Long] = _
  private var cells: Array[Int] = _
  private var shift = 0
  rehash()

  /** Current θ_lb. */
  def threshold: Double = if (n < k) 0.0 else vals(0)

  def size: Int = n

  /** Raises (or inserts) `id`'s lower bound. Returns true iff θ_lb changed. */
  def update(id: Long, lb: Double): Boolean = {
    val before = threshold
    val s = slotOf(id)
    if (s >= 0) { if (lb > vals(s)) siftDown(s, lb, id) }
    else if (n < k) {
      if (n == vals.length) grow()
      n += 1
      siftUp(n - 1, lb, id)
    }
    else if (lb > vals(0)) { unplace(ids(0)); siftDown(0, lb, id) }
    threshold != before
  }

  /** Ids currently in the list, descending by lower bound (ties: larger id first). */
  def entries: Seq[(Long, Double)] =
    (0 until n).map(s => (ids(s), vals(s)))
      .sortWith((a, b) => a._2 > b._2 || (a._2 == b._2 && a._1 > b._1))

  /** Puts (v, id) at slot `s` or below, moving smaller children up. */
  private def siftDown(s0: Int, v: Double, id: Long): Unit = {
    var s = s0
    var moving = true
    while (moving) {
      val l = 2 * s + 1
      val c = if (l + 1 < n && vals(l + 1) < vals(l)) l + 1 else l
      if (c < n && vals(c) < v) { move(c, s); s = c }
      else moving = false
    }
    set(s, v, id)
  }

  /** Puts (v, id) at slot `s` or above, moving larger parents down. */
  private def siftUp(s0: Int, v: Double, id: Long): Unit = {
    var s = s0
    while (s > 0 && v < vals((s - 1) / 2)) { move((s - 1) / 2, s); s = (s - 1) / 2 }
    set(s, v, id)
  }

  private def move(from: Int, to: Int): Unit = set(to, vals(from), ids(from))

  private def set(s: Int, v: Double, id: Long): Unit = {
    vals(s) = v; ids(s) = id; place(id, s)
  }

  private def grow(): Unit = {
    val cap = math.min(k.toLong, 2L * vals.length).toInt
    vals = java.util.Arrays.copyOf(vals, cap)
    ids = java.util.Arrays.copyOf(ids, cap)
    rehash()
  }

  /** Sizes the table to at least twice the heap capacity and re-enters the ids. */
  private def rehash(): Unit = {
    val size = Integer.highestOneBit(2 * vals.length - 1) << 1
    keys = new Array[Long](size)
    cells = Array.fill(size)(-1)
    shift = 64 - Integer.numberOfTrailingZeros(size)
    var s = 0
    while (s < n) { place(ids(s), s); s += 1 }
  }

  /** Home cell of `id` (Fibonacci hashing on the top bits). */
  private def home(id: Long): Int = ((id * 0x9E3779B97F4A7C15L) >>> shift).toInt

  private def slotOf(id: Long): Int = {
    var c = home(id)
    while (cells(c) >= 0 && keys(c) != id) c = (c + 1) & (keys.length - 1)
    cells(c)
  }

  private def place(id: Long, s: Int): Unit = {
    var c = home(id)
    while (cells(c) >= 0 && keys(c) != id) c = (c + 1) & (keys.length - 1)
    keys(c) = id; cells(c) = s
  }

  /** Removes `id`, which is present, shifting later cells of its probe run back. */
  private def unplace(id: Long): Unit = {
    val mask = keys.length - 1
    var free = home(id)
    while (keys(free) != id || cells(free) < 0) free = (free + 1) & mask
    var c = (free + 1) & mask
    while (cells(c) >= 0) {
      // A cell may move back to `free` iff `free` lies on its probe path.
      if (((c - home(keys(c))) & mask) >= ((c - free) & mask)) {
        keys(free) = keys(c); cells(free) = cells(c); free = c
      }
      c = (c + 1) & mask
    }
    cells(free) = -1
  }
}
