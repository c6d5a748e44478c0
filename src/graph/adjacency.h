#ifndef SAGDFN_GRAPH_ADJACENCY_H_
#define SAGDFN_GRAPH_ADJACENCY_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sagdfn::graph {

/// Row-normalizes `adjacency` so each non-empty row sums to 1 (random-walk
/// transition matrix). Zero rows stay zero.
tensor::Tensor RowNormalize(const tensor::Tensor& adjacency);

/// Symmetric normalization D^{-1/2} A D^{-1/2} for a square adjacency.
tensor::Tensor SymmetricNormalize(const tensor::Tensor& adjacency);

/// Keeps the `k` largest entries per row and zeroes the rest.
tensor::Tensor TopKPerRow(const tensor::Tensor& adjacency, int64_t k);

/// Fraction of exactly-zero entries.
double Sparsity(const tensor::Tensor& adjacency);

/// Row-wise top-k overlap between two N x N matrices (mean Jaccard of the
/// per-row top-k index sets). Used to compare a learned adjacency against
/// the generator's latent graph.
double TopKOverlap(const tensor::Tensor& a, const tensor::Tensor& b,
                   int64_t k);

}  // namespace sagdfn::graph

#endif  // SAGDFN_GRAPH_ADJACENCY_H_
