#ifndef SAGDFN_CORE_SAGDFN_H_
#define SAGDFN_CORE_SAGDFN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/fast_gconv.h"
#include "core/seq_model.h"
#include "core/sns.h"
#include "core/ssma.h"
#include "data/window_dataset.h"
#include "graph/csr.h"
#include "nn/linear.h"

namespace sagdfn::core {

/// Frozen inference-time view of the learned graph: the slim adjacency
/// A_s [N, M], its inverse-degree column (D + I)^{-1} [N, 1], and the
/// significant-node index set I. Computed once (no tape, no exploration)
/// via SagdfnModel::Snapshot() and shared read-only across serving
/// workers — the whole point of the slim N x M factorization is that this
/// snapshot is small enough to pin per model replica.
struct AdjacencySnapshot {
  tensor::Tensor a_s;              // [N, M]
  tensor::Tensor inv_deg;          // [N, 1]
  std::vector<int64_t> index_set;  // M node ids (columns of a_s)
  /// CsrFromDense(a_s). No forecast path reads it: Predict and the
  /// rollout plans diffuse through a_s, because the learned slim
  /// adjacency has no zeros in practice and CSR saves no terms. It is
  /// kept only for the CSR-vs-dense diffusion probes in perfbench and
  /// bench_table4_graphsize. Set by Snapshot() and
  /// FrozenModel::LoadMapped; may be null in hand-built snapshots.
  std::shared_ptr<const graph::CsrMatrix> csr;
};

/// Hyper-parameters of the SAGDFN model (paper Section V-A,
/// "Implementation": d = 100, M = 100, K = 80, J = 3, hidden 64, 8 heads,
/// one encoder-decoder layer; defaults here are scaled for CPU use and
/// overridden by the benches).
struct SagdfnConfig {
  int64_t num_nodes = 0;
  /// Node embedding dimension d.
  int64_t embedding_dim = 16;
  /// Significant neighbor count M (M << N).
  int64_t m = 20;
  /// Globally-significant prefix K (< M); M - K slots explore randomly.
  int64_t k = 16;
  /// GRU hidden size D.
  int64_t hidden_dim = 32;
  /// Attention heads P.
  int64_t heads = 4;
  /// Per-head FFN hidden width.
  int64_t ffn_hidden = 16;
  /// Graph diffusion depth J.
  int64_t diffusion_steps = 3;
  /// Entmax alpha in [1.0, 2.5].
  float alpha = 1.5f;
  /// History h and horizon f.
  int64_t history = 12;
  int64_t horizon = 12;
  /// Input channels: the reading and its time of day (data::Batch::x).
  static constexpr int64_t input_dim = data::kInputChannels;
  /// Convergence iteration r: neighbor sampling explores while the global
  /// training iteration is below r, then the index set freezes to the
  /// top-M significant nodes.
  int64_t convergence_iters = 50;
  /// Ablation switches (paper Table VIII variants).
  bool use_entmax = true;     // false: "w/o Entmax" (softmax)
  bool use_attention = true;  // false: "w/o Pair-Wise Attention"
  bool use_sns = true;        // false: "w/o SNS" (random index set)
  uint64_t seed = 7;
};

/// The Scalable Adaptive Graph Diffusion Forecasting Network (paper
/// Section IV): Significant Neighbors Sampling -> Sparse Spatial
/// Multi-Head Attention -> encoder-decoder of OneStepFastGConv cells,
/// trained end-to-end with L1 loss (Algorithm 2).
class SagdfnModel : public SeqModel {
 public:
  explicit SagdfnModel(const SagdfnConfig& config);

  autograd::Variable Forward(const tensor::Tensor& x,
                             const tensor::Tensor& future_tod,
                             int64_t iteration,
                             const tensor::Tensor* teacher = nullptr,
                             double teacher_prob = 0.0) override;

  std::string name() const override { return "SAGDFN"; }
  int64_t horizon() const override { return config_.horizon; }

  /// Caps the sampling-convergence iteration r at 60% of the planned
  /// training length so short runs still get an exploration phase and a
  /// frozen tail (the paper sets r near embedding convergence).
  void OnTrainingPlan(int64_t total_iterations) override;

  /// Restores the significant-node index set from the checkpoint buffer.
  void OnStateLoaded() override;

  /// Checkpoints the scheduled-sampling RNG and the SNS sampler state
  /// (exploration RNG + candidate matrix) so a resumed run replays the
  /// exact neighbor-sampling and teacher-forcing sequence.
  std::vector<std::pair<std::string, std::vector<uint64_t>>>
  ExportRuntimeState() const override;
  utils::Status ImportRuntimeState(
      const std::vector<std::pair<std::string, std::vector<uint64_t>>>&
          state) override;

  const SagdfnConfig& config() const { return config_; }

  /// The current significant-node index set I (|I| = M after the first
  /// forward pass).
  const std::vector<int64_t>& index_set() const { return index_set_; }

  /// The node embedding matrix E [N, d].
  const autograd::Variable& embeddings() const { return embeddings_; }

  /// Computes the slim adjacency A_s [N, M] for the current embeddings
  /// without a tape. The index set is refreshed as a forward pass at
  /// iteration 0 would refresh it, in whatever mode the model is in: in
  /// training mode an unfrozen set is redrawn with exploration (which
  /// advances the sampler's RNG), so two calls can score differently;
  /// in eval mode an existing set is kept. Snapshot() gives the
  /// exploration-free view serving uses. Column j refers to node
  /// index_set()[j]; graph::TopKOverlapCsr scores it against a latent
  /// ground-truth graph without densifying either side.
  tensor::Tensor ComputeSlimAdjacency();

  /// Freezes the learned graph for serving: one exploration-free index
  /// set (reusing the trained/restored set when present), the slim
  /// adjacency, and its inverse-degree column, all computed without a
  /// tape. The snapshot is immutable and safe to share read-only across
  /// threads; pair it with Predict().
  AdjacencySnapshot Snapshot();

  /// Inference-only forward pass against a frozen snapshot: no tape, no
  /// resampling, no scheduled sampling, no RNG use, and no mutation of
  /// model state — safe to call concurrently from many threads on one
  /// model instance (parameters are read-only inside). `x` is
  /// [B, h, N, C], `future_tod` [B, f]; returns scaled predictions
  /// [B, f, N]. Per batch row the result is bit-identical regardless of
  /// which other rows share the batch (every kernel treats batch rows
  /// independently), which is what makes dynamic micro-batching in
  /// serve::InferenceEngine deterministic.
  tensor::Tensor Predict(const tensor::Tensor& x,
                         const tensor::Tensor& future_tod,
                         const AdjacencySnapshot& snapshot) const;

  /// The encoder-decoder cell (read by core/rollout_plan).
  const GConvGruCell& cell() const { return *cell_; }

  /// The H -> 1 output projection (read by core/rollout_plan).
  const nn::Linear& output_projection() const { return *output_proj_; }

 private:
  /// Refreshes `index_set_` per Algorithm 2 lines 5-6.
  void MaybeResample(int64_t iteration);

  /// Mirrors (index_set_, frozen_) into the checkpoint buffer.
  void SyncIndexState();

  /// A_s from the configured attention variant.
  autograd::Variable Adjacency();

  /// Shared encoder-decoder rollout over a fixed adjacency. `sampling_rng`
  /// drives the scheduled-sampling coin flips and may be null when
  /// `teacher` is null (the inference path); with it null the rollout is
  /// const in the deep sense — no model state is touched.
  autograd::Variable Rollout(const autograd::Variable& a_s,
                             const autograd::Variable& inv_deg,
                             const std::vector<int64_t>& index_set,
                             const tensor::Tensor& x,
                             const tensor::Tensor& future_tod,
                             const tensor::Tensor* teacher,
                             double teacher_prob,
                             utils::Rng* sampling_rng) const;

  SagdfnConfig config_;
  utils::Rng rng_;
  autograd::Variable embeddings_;  // E: [N, d]
  std::unique_ptr<SignificantNeighborSampler> sampler_;
  std::unique_ptr<SparseSpatialAttention> attention_;
  std::unique_ptr<GConvGruCell> cell_;
  std::unique_ptr<nn::Linear> output_proj_;  // H -> 1 (W_x)
  std::vector<int64_t> index_set_;
  bool frozen_ = false;
  /// Checkpointed copy of (index_set_, frozen_): [m] ids then a flag.
  tensor::Tensor index_state_;
};

}  // namespace sagdfn::core

#endif  // SAGDFN_CORE_SAGDFN_H_
