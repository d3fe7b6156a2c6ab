package repro.core

/** Test helper: an [[Edges]] table to and from the string-keyed edge lists
  * that the test oracles build.
  */
object EdgeTables {

  /** Token `id`'s edges in the order they were added (the table keeps them
    * newest first).
    */
  def edgesOf(edges: Edges, id: Int): Seq[(Int, Double)] = {
    var added = List.empty[(Int, Double)]
    var e = edges.head(id)
    while (e != 0) { added = (edges.qIdx(e), edges.sim(e)) :: added; e = edges.next(e) }
    added
  }

  /** The table of `edgesOf` with token id = position in `tokens`, each
    * token's edges added in list order.
    */
  def table(tokens: Seq[String], edgesOf: String => Array[(Int, Double)]): Edges = {
    val edges = new Edges(tokens.length)
    for (id <- tokens.indices; (qi, sim) <- edgesOf(tokens(id))) edges.add(id, qi, sim)
    edges
  }

  /** Every token of `inverted` with an edge, with its edges in the order they
    * were added: the string-keyed edge cache the table replaces.
    */
  def byToken(inverted: InvertedIndex, edges: Edges): Map[String, Seq[(Int, Double)]] =
    inverted.vocabulary.iterator.map(t => t -> edgesOf(edges, inverted.idOf(t)))
      .filter(_._2.nonEmpty).toMap
}
