#ifndef SAGDFN_GRAPH_GENERATORS_H_
#define SAGDFN_GRAPH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "utils/rng.h"

namespace sagdfn::graph {

/// The latent "road network" of the synthetic traffic datasets, stored
/// sparsely: a dense [N, N] adjacency (400 MB at N=10k, 40 GB at
/// N=100k) is not an option at the scale tier, and the geometric graph
/// itself has only ~degree * N edges at every size.
struct SparseSpatialGraph {
  int64_t num_nodes = 0;
  /// Symmetric weighted adjacency, zero diagonal, columns ascending.
  CsrMatrix adjacency;
  /// Node positions in the unit square.
  std::vector<double> x;
  std::vector<double> y;
};

/// Random geometric graph: nodes uniform in the unit square (x then y
/// per node, nothing else drawn from `rng`); edge weight
/// w_ij = float(exp(-dist^2 / sigma^2)) when dist <= radius (the
/// METR-LA sensor graph construction). Weights that round to 0.0f are
/// not stored, so the CSR holds exactly the nonzero entries of the dense
/// construction. Edge construction uses a uniform grid with cell width
/// >= radius (all neighbors lie in the 3x3 surrounding cells), so it
/// runs in O(N * degree) time and memory instead of an O(N^2) pair scan.
/// The tests pin it against a dense pair-scan reference.
SparseSpatialGraph RandomGeometricSparse(int64_t num_nodes, double radius,
                                         double sigma, utils::Rng& rng);

}  // namespace sagdfn::graph

#endif  // SAGDFN_GRAPH_GENERATORS_H_
