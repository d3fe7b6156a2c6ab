package repro.core

/** Index backed by explicit (query token → neighbors) lists, for tests that
  * need a similarity table written out by hand. The lists are checked and
  * sorted once, here, so a probe only applies the α filter. A value that
  * is not finite or not in [0, 1] breaks the similarity contract the
  * refinement bounds assume and throws `IllegalArgumentException` naming the
  * pair.
  */
final class PrecomputedSimilarityIndex(lists: Map[String, Array[(String, Double)]])
    extends SimilarityIndex {
  for ((q, xs) <- lists; (t, s) <- xs if !(s >= 0.0 && s <= 1.0))
    throw new IllegalArgumentException(
      s"similarity contract broken: sim($q, $t) = $s is not in [0, 1]")

  private val sorted = lists.map { case (q, xs) => q -> xs.sortBy { case (t, s) => (-s, t) } }

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] =
    sorted.getOrElse(q, Array.empty[(String, Double)]).filter(_._2 >= alpha)
}
