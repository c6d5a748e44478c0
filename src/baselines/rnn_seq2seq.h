#ifndef SAGDFN_BASELINES_RNN_SEQ2SEQ_H_
#define SAGDFN_BASELINES_RNN_SEQ2SEQ_H_

#include <memory>
#include <string>

#include "core/seq_model.h"
#include "nn/linear.h"
#include "nn/rnn.h"
#include "utils/rng.h"

namespace sagdfn::baselines {

/// Per-node LSTM (or GRU) sequence-to-sequence forecaster with weights
/// shared across nodes — the paper's "LSTM" baseline. Nodes are treated
/// independently (the B and N axes fold into one batch), so the model
/// captures temporal structure only; its gap to the graph models on
/// spatially-correlated data is exactly what the paper's tables surface.
class RnnSeq2Seq : public core::SeqModel {
 public:
  enum class CellType { kLstm, kGru };

  RnnSeq2Seq(CellType cell_type, int64_t hidden_dim, int64_t history,
             int64_t horizon, uint64_t seed);

  autograd::Variable Forward(const tensor::Tensor& x,
                             const tensor::Tensor& future_tod,
                             int64_t iteration,
                             const tensor::Tensor* teacher = nullptr,
                             double teacher_prob = 0.0) override;

  std::string name() const override {
    return cell_type_ == CellType::kLstm ? "LSTM" : "GRU-seq2seq";
  }
  int64_t horizon() const override { return horizon_; }

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

 private:
  CellType cell_type_;
  int64_t hidden_dim_;
  int64_t history_;
  int64_t horizon_;
  std::unique_ptr<nn::LstmCell> lstm_;
  std::unique_ptr<nn::GruCell> gru_;
  std::unique_ptr<nn::Linear> output_proj_;
  utils::Rng teacher_rng_;
};

}  // namespace sagdfn::baselines

#endif  // SAGDFN_BASELINES_RNN_SEQ2SEQ_H_
