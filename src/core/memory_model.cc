#include "core/memory_model.h"

#include "utils/check.h"

namespace sagdfn::core {
namespace {

constexpr double kBytesPerFloat = 4.0;
// Autograd keeps roughly forward value + gradient + workspace per
// activation-sized buffer.
constexpr double kTapeCopies = 3.0;
// Encoder + decoder, ~6 gate/candidate activations per recurrent step.
constexpr double kRecurrentBuffers = 12.0;
// Adam keeps two moments per parameter in addition to the gradient.
constexpr double kOptimizerCopies = 4.0;
// GTS/STEP featurize the full training sequence per node; this is the
// compressed per-node feature width their pairwise concat uses.
constexpr double kSequenceFeature = 640.0;

double RecurrentActivations(const MemoryParams& p) {
  // B x T x N x D hidden state per buffered activation (Example 1's
  // "hidden state variables of size B x N x T x D").
  return static_cast<double>(p.batch) * p.window * p.num_nodes * p.hidden *
         kBytesPerFloat * kRecurrentBuffers * kTapeCopies;
}

double TemporalOnlyActivations(const MemoryParams& p) {
  // Attention-based temporal models keep B x T x N x D too, minus the
  // recurrence (fewer buffers).
  return static_cast<double>(p.batch) * p.window * p.num_nodes * p.hidden *
         kBytesPerFloat * 6.0 * kTapeCopies;
}

}  // namespace

const char* FamilyName(ModelFamily family) {
  switch (family) {
    case ModelFamily::kDcrnn:
      return "DCRNN";
    case ModelFamily::kStgcn:
      return "STGCN";
    case ModelFamily::kGraphWaveNet:
      return "GRAPH WaveNet";
    case ModelFamily::kGman:
      return "GMAN";
    case ModelFamily::kAgcrn:
      return "AGCRN";
    case ModelFamily::kMtgnn:
      return "MTGNN";
    case ModelFamily::kAstgcn:
      return "ASTGCN";
    case ModelFamily::kStsgcn:
      return "STSGCN";
    case ModelFamily::kGts:
      return "GTS";
    case ModelFamily::kStep:
      return "STEP";
    case ModelFamily::kD2stgnn:
      return "D2STGNN(c)";
    case ModelFamily::kSagdfn:
      return "SAGDFN";
  }
  return "?";
}

MemoryEstimate EstimateTrainingMemory(ModelFamily family,
                                      const MemoryParams& p) {
  MemoryEstimate est;
  const double n = static_cast<double>(p.num_nodes);
  const double b = static_cast<double>(p.batch);
  const double t = static_cast<double>(p.window);
  const double d_emb = static_cast<double>(p.embedding);
  const double hidden = static_cast<double>(p.hidden);
  const double m = static_cast<double>(p.m);
  const double heads = static_cast<double>(p.heads);

  est.activation_bytes = RecurrentActivations(p);
  // Generic parameter budget; refined per family below where the paper
  // reports wildly different counts (Table X).
  est.parameter_bytes =
      (hidden * hidden * 16.0 + n * d_emb) * kBytesPerFloat *
      kOptimizerCopies;

  switch (family) {
    case ModelFamily::kDcrnn:
      // Sparse predefined transition matrices: O(E) with E << N^2.
      est.graph_bytes = n * 32.0 * kBytesPerFloat * kTapeCopies;
      break;
    case ModelFamily::kStgcn:
      // Dense Chebyshev supports materialized per batched window.
      est.graph_bytes = b * t * n * n * kBytesPerFloat * kTapeCopies;
      est.activation_bytes = TemporalOnlyActivations(p);
      break;
    case ModelFamily::kGraphWaveNet:
    case ModelFamily::kMtgnn:
      // Adaptive adjacency from embedding inner products, shared across
      // the batch: O(N^2) plus O(N d) embeddings.
      est.graph_bytes =
          (n * n * 2.0 + n * d_emb) * kBytesPerFloat * kTapeCopies;
      est.activation_bytes = TemporalOnlyActivations(p);
      break;
    case ModelFamily::kGman:
    case ModelFamily::kAstgcn:
      // Spatial attention scores per head per time step per sample.
      est.graph_bytes = b * t * heads * n * n * kBytesPerFloat;
      est.activation_bytes = TemporalOnlyActivations(p);
      break;
    case ModelFamily::kStsgcn:
      // Localized spatial-temporal graph of 3 consecutive steps: (3N)^2
      // supports per window position.
      est.graph_bytes = b * t * 9.0 * n * n * kBytesPerFloat;
      est.activation_bytes = TemporalOnlyActivations(p);
      break;
    case ModelFamily::kAgcrn:
      // Node-adaptive supports materialized per batch element and step:
      // O(B T N^2) (paper Table I: O(N^2 + N d) memory per sample).
      est.graph_bytes = b * t * n * n * kBytesPerFloat * kTapeCopies;
      break;
    case ModelFamily::kGts:
    case ModelFamily::kStep:
      // Pairwise concatenated sequence features: O(N^2 d) with d the
      // compressed full-sequence feature width (paper Table I memory
      // O(N^2 + N^2 d)).
      est.graph_bytes = (n * n * 2.0 * kSequenceFeature + n * n * d_emb) *
                        kBytesPerFloat * kTapeCopies;
      break;
    case ModelFamily::kD2stgnn:
      // Decoupled diffusion/inherent blocks with per-step spatial-temporal
      // attention: O(B T^2 N^2) activation-sized scores.
      est.graph_bytes = b * t * t * n * n * kBytesPerFloat * kTapeCopies;
      break;
    case ModelFamily::kSagdfn:
      // Slim pipeline: E_bar [N, M, 2d] per head plus A_s [N, M]
      // (Example 2: N x M x ... instead of N x N x ...).
      est.graph_bytes =
          (n * m * 2.0 * d_emb * heads + n * m) * kBytesPerFloat *
          kTapeCopies;
      // Hidden states shrink to B x M x T x D for the gathered rows plus
      // the per-node states.
      est.parameter_bytes =
          (hidden * hidden * 8.0 + n * d_emb) * kBytesPerFloat *
          kOptimizerCopies;
      break;
  }
  return est;
}

bool WouldOom(const MemoryEstimate& estimate, double budget_bytes) {
  SAGDFN_CHECK_GT(budget_bytes, 0.0);
  return estimate.total_bytes() > budget_bytes;
}

ComplexityFormula FormulaFor(ModelFamily family) {
  switch (family) {
    case ModelFamily::kAgcrn:
      return {"O(N^2 d + N^2 D)", "O(N^2 + N d)"};
    case ModelFamily::kGts:
    case ModelFamily::kStep:
      return {"O(N^2 d^2 + N^2 D)", "O(N^2 + N^2 d)"};
    case ModelFamily::kSagdfn:
      return {"O(N M d^2 + N M D)", "O(N M + N M d)"};
    case ModelFamily::kGman:
    case ModelFamily::kAstgcn:
      return {"O(N^2 D P)", "O(N^2 P)"};
    case ModelFamily::kD2stgnn:
      return {"O(N^2 T^2 D)", "O(N^2 T^2)"};
    case ModelFamily::kGraphWaveNet:
    case ModelFamily::kMtgnn:
      return {"O(N^2 d + N^2 D)", "O(N^2 + N d)"};
    case ModelFamily::kStgcn:
    case ModelFamily::kStsgcn:
      return {"O(N^2 D)", "O(N^2)"};
    case ModelFamily::kDcrnn:
      return {"O(E D)", "O(E)"};
  }
  return {"?", "?"};
}

}  // namespace sagdfn::core
