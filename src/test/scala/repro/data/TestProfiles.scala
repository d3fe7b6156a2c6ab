package repro.data

/** Dataset profiles of the unit tests. */
object TestProfiles {
  /** A tiny profile for fast end-to-end runs. */
  val tiny: DatasetProfile = DatasetProfile(
    name = "tiny", nSets = 200, nConcepts = 150, synonymsPerConcept = 3,
    dim = 16, clusterCosine = 0.88, oovFraction = 0.15,
    minCard = 4, maxCard = 30, cardSkew = 2.0,
    conceptZipf = 0.9, localityWindow = 10, pLocal = 0.6, seed = 7)
}
