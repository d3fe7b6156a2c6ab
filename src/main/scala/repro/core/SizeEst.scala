package repro.core

/** Rough JVM-heap size estimates for the search data structures, mirroring
  * the paper's memory-footprint accounting (§VIII-D): the reported number is
  * the sum of the refinement-phase structures (token stream buffers, edge
  * cache, candidate states, buckets) and the post-processing structures
  * (top-k lists, UB priority queue, the matching scratch), *excluding* the repository itself and
  * the shared indexes, which are query-independent.
  *
  * Constants approximate a 64-bit JVM with compressed oops: strings cost
  * ~(40 + 2·len) bytes, boxed tuple entries in collections ~48 bytes, map
  * entries ~40 bytes of overhead; primitive arrays cost their element width.
  */
object SizeEst {

  def ofString(s: String): Long = 40L + 2L * s.length

  /** Token stream: per query token a buffered (token, sim) list. */
  def ofTokenStream(bufferedPairs: Long): Long = bufferedPairs * 56L

  /** Edge cache: token → array of (qIdx, sim). */
  def ofEdgeCache(cache: collection.Map[String, Array[(Int, Double)]]): Long =
    cache.iterator.map { case (t, es) => ofString(t) + 40L + es.length.toLong * 24L }.sum

  /** Candidate bound state of the refinement phase, as allocated: by record a
    * state byte, `lb` and `ubScore` doubles and `m` and matched-bit offset
    * ints (25 bytes); by vocabulary token its query position (4 bytes); by
    * admitted candidate one bit per query position and one per set element,
    * each rounded up to 64-bit words. No term grows with |records|·|Q|.
    */
  def ofCandidates(nRecords: Int, vocabSize: Int, nCandidates: Int, queryLen: Int,
                   avgCard: Double): Long =
    25L * nRecords + 4L * vocabSize +
      8L * nCandidates * ((queryLen + 63) / 64 + math.ceil(avgCard / 64).toLong)

  /** Bucket heaps: a `Double` and an `Int` (12 bytes) per heap entry. */
  def ofBuckets(nEntries: Long): Long = 12L * nEntries

  /** Post-processing lists: L_lb, L_ub (k entries) and Q_ub (survivors), plus
    * the matching scratch sized by the largest matching, n = max(rows, cols).
    */
  def ofPostProcessing(k: Int, survivors: Int, largestMatching: Int): Long =
    2L * k * 48L + survivors.toLong * 48L + ofMatchingScratch(largestMatching)

  /** [[Matching.Scratch]] for an n×n matching: the padded `Double` matrix
    * (8·n²), the `lx`, `ly`, `slack` doubles, the `way`, `matchL`, `matchR`
    * ints, the `sRows`, `tCols` tree lists and the `inT` flags (45·n). The
    * builder's column and row maps, one slot per candidate token and per
    * query token, are not counted.
    */
  def ofMatchingScratch(n: Int): Long = 8L * n * n + 45L * n
}
