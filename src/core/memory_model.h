#ifndef SAGDFN_CORE_MEMORY_MODEL_H_
#define SAGDFN_CORE_MEMORY_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sagdfn::core {

/// Model families whose asymptotic training footprint the paper discusses
/// (Table I, Example 1/2, and the OOM markers of Tables V-VII).
enum class ModelFamily {
  kDcrnn,
  kStgcn,
  kGraphWaveNet,
  kGman,
  kAgcrn,
  kMtgnn,
  kAstgcn,
  kStsgcn,
  kGts,
  kStep,
  kD2stgnn,
  kSagdfn,
};

/// Human-readable family name matching the paper's tables.
const char* FamilyName(ModelFamily family);

/// Workload parameters the estimates depend on (paper notation: N nodes,
/// d node-embedding dim, D hidden dim, M significant nodes, B batch, T
/// window length, P attention heads).
struct MemoryParams {
  int64_t num_nodes = 2000;    // N
  int64_t batch = 32;          // B
  int64_t window = 24;         // T (history + horizon scale)
  int64_t hidden = 64;         // D
  int64_t embedding = 100;     // d
  int64_t m = 100;             // M
  int64_t heads = 8;           // P
  /// GTS/STEP featurize the full training sequence per node; this is the
  /// compressed per-node feature width their pairwise concat uses.
  int64_t sequence_feature = 640;
};

/// Byte-level decomposition of estimated training memory.
struct MemoryEstimate {
  /// Recurrent/temporal activations kept for backprop.
  double activation_bytes = 0.0;
  /// Graph-structure buffers (adjacency, pairwise features, attention).
  double graph_bytes = 0.0;
  /// Parameters + optimizer state.
  double parameter_bytes = 0.0;

  double total_bytes() const {
    return activation_bytes + graph_bytes + parameter_bytes;
  }
};

/// Analytic training-memory estimate for a family at the given sizes.
///
/// The estimate is leading-order with an autograd-tape multiplier of 3x
/// (forward value, gradient, workspace) on activation-sized buffers; the
/// per-family graph terms implement the scaling classes the paper
/// identifies: O(N^2)-per-batch (AGCRN/STGCN/GMAN/ASTGCN/STSGCN),
/// O(N^2 d)-pairwise (GTS/STEP), O(N^2 T^2) (D2STGNN), O(N^2) shared
/// (GraphWaveNet/MTGNN), sparse-predefined (DCRNN), and O(N M d)
/// (SAGDFN).
MemoryEstimate EstimateTrainingMemory(ModelFamily family,
                                      const MemoryParams& params);

/// True when the estimate exceeds the accelerator budget (the paper's
/// 32 GB V100 by default).
bool WouldOom(const MemoryEstimate& estimate,
              double budget_bytes = 32.0 * (1ull << 30));

/// Symbolic complexity strings reproducing paper Table I rows.
struct ComplexityFormula {
  std::string computation;
  std::string memory;
};

/// Table I row for the four families the paper lists (AGCRN, GTS, STEP,
/// SAGDFN); other families return their closest class.
ComplexityFormula FormulaFor(ModelFamily family);

/// Leading-order FLOP count of one graph-structure construction +
/// convolution pass (the quantities behind Table I's computation column).
double GraphComputeFlops(ModelFamily family, const MemoryParams& params);

}  // namespace sagdfn::core

#endif  // SAGDFN_CORE_MEMORY_MODEL_H_
