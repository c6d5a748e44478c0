#ifndef SAGDFN_BASELINES_DENSE_STGNN_H_
#define SAGDFN_BASELINES_DENSE_STGNN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/seq_model.h"
#include "data/window_dataset.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "utils/rng.h"

namespace sagdfn::baselines {

/// How the full N x N adjacency is obtained — the axis along which the
/// paper classifies the STGNN baselines (Section V-A "Baselines").
enum class GraphSource {
  /// Fixed, data-independent topology (DCRNN / STGCN / STSGCN class).
  kPredefined,
  /// Inner product of learned node embeddings (AGCRN / MTGNN /
  /// GraphWaveNet class). `directional` picks MTGNN's E1 E2^T form.
  kAdaptive,
  /// Mean of predefined and adaptive supports (GraphWaveNet / D2STGNN
  /// class, which combine both).
  kBoth,
  /// Pairwise feed-forward scoring of concatenated embeddings (GTS / STEP
  /// class). Materializes an [N, N, 2d] tensor — the O(N^2 d) memory the
  /// paper calls out.
  kPairwiseFfn,
  /// Scaled dot-product attention over projected embeddings (GMAN /
  /// ASTGCN class).
  kAttention,
};

/// Configuration of a dense-adjacency STGNN baseline.
struct DenseStgnnConfig {
  std::string name = "DenseSTGNN";
  int64_t num_nodes = 0;
  int64_t history = 12;
  int64_t horizon = 12;
  /// Input channels: the reading and its time of day (data::Batch::x).
  static constexpr int64_t input_dim = data::kInputChannels;
  int64_t hidden_dim = 32;
  int64_t embedding_dim = 8;
  int64_t diffusion_steps = 2;
  GraphSource source = GraphSource::kAdaptive;
  bool directional = false;
  uint64_t seed = 9;
};

/// Encoder-decoder GRU whose gates use dense graph diffusion over a full
/// N x N adjacency — the O(N^2) counterpart of SAGDFN's slim pipeline.
/// One implementation parameterized by GraphSource stands in for the
/// paper's dense STGNN baselines: the temporal backbone is unified (GRU
/// encoder-decoder) so the tables compare graph-learning mechanisms, which
/// is the distinction the paper's analysis rests on.
class DenseStgnn : public core::SeqModel {
 public:
  /// `predefined` is required (row-normalized internally) for kPredefined
  /// and kBoth; ignored otherwise.
  DenseStgnn(const DenseStgnnConfig& config,
             tensor::Tensor predefined = tensor::Tensor());

  autograd::Variable Forward(const tensor::Tensor& x,
                             const tensor::Tensor& future_tod,
                             int64_t iteration,
                             const tensor::Tensor* teacher = nullptr,
                             double teacher_prob = 0.0) override;

  std::string name() const override { return config_.name; }
  int64_t horizon() const override { return config_.horizon; }

  /// The scheduled-sampling RNG is the only non-parameter training state.
  std::vector<std::pair<std::string, std::vector<uint64_t>>>
  ExportRuntimeState() const override {
    return {{"rng", teacher_rng_.SerializeState()}};
  }
  utils::Status ImportRuntimeState(
      const std::vector<std::pair<std::string, std::vector<uint64_t>>>&
          state) override {
    return ImportSingleRng(state, &teacher_rng_);
  }

  /// The dense adjacency the current parameters produce (inference mode).
  tensor::Tensor ComputeAdjacency();

  const DenseStgnnConfig& config() const { return config_; }

 private:
  autograd::Variable Adjacency() const;
  /// One dense graph-convolution: sum_j W_j [(D+I)^{-1} (A X + X)]^(j).
  autograd::Variable GraphConv(const autograd::Variable& a,
                               const autograd::Variable& x,
                               const std::vector<autograd::Variable>& w,
                               const autograd::Variable& bias) const;
  autograd::Variable CellStep(const autograd::Variable& a,
                              const autograd::Variable& x,
                              const autograd::Variable& h) const;

  DenseStgnnConfig config_;
  tensor::Tensor predefined_;               // [N, N] row-normalized
  autograd::Variable embeddings_;           // E1
  autograd::Variable embeddings_dst_;       // E2 (directional variants)
  std::unique_ptr<nn::Linear> attn_query_;  // kAttention
  std::unique_ptr<nn::Linear> attn_key_;
  std::unique_ptr<nn::Mlp> pair_ffn_;       // kPairwiseFfn
  // GRU-gate graph convolutions (r|z combined, then candidate).
  std::vector<autograd::Variable> gate_w_;
  autograd::Variable gate_b_;
  std::vector<autograd::Variable> cand_w_;
  autograd::Variable cand_b_;
  std::unique_ptr<nn::Linear> output_proj_;
  utils::Rng teacher_rng_{12345};
};

}  // namespace sagdfn::baselines

#endif  // SAGDFN_BASELINES_DENSE_STGNN_H_
