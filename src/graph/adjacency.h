#ifndef SAGDFN_GRAPH_ADJACENCY_H_
#define SAGDFN_GRAPH_ADJACENCY_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace sagdfn::graph {

/// Row-normalizes `adjacency` so each non-empty row sums to 1 (random-walk
/// transition matrix). Zero rows stay zero. Each value is scaled by
/// float(1.0 / row_sum), or divided by the row sum in double when that
/// reciprocal is not finite (a row sum below 1 / FLT_MAX), so every row
/// stays finite.
tensor::Tensor RowNormalize(const tensor::Tensor& adjacency);

/// Keeps the `k` largest entries per row and zeroes the rest.
tensor::Tensor TopKPerRow(const tensor::Tensor& adjacency, int64_t k);

/// Fraction of exactly-zero entries.
double Sparsity(const tensor::Tensor& adjacency);

}  // namespace sagdfn::graph

#endif  // SAGDFN_GRAPH_ADJACENCY_H_
