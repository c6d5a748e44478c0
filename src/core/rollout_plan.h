#ifndef SAGDFN_CORE_ROLLOUT_PLAN_H_
#define SAGDFN_CORE_ROLLOUT_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sagdfn.h"
#include "tensor/tensor.h"

namespace sagdfn::core {

/// Which rollout a plan compiles.
///
///   kFull        — the classic window rollout: zero-initialize the GRU
///                  hidden state, encode `history` frames, decode
///                  `horizon` steps. Optionally exports the post-encoder
///                  hidden state (the encoder-prefix resume point).
///   kIncremental — the streaming tick rollout: resume from an imported
///                  hidden state, encode exactly ONE new frame, decode
///                  `horizon` steps. A sliding window shares h-1 of its h
///                  encoder steps with the previous tick, so a tick costs
///                  O(1) encoder work instead of O(h). Chaining
///                  incremental ticks from a kFull run's exported state
///                  is bit-identical to re-encoding the whole accumulated
///                  frame sequence eagerly (same kernels, same per-row
///                  chains, the carried state is a byte copy of the slab).
enum class PlanKind { kFull, kIncremental };

/// Precompiled eval-mode execution plan for the SAGDFN encoder/decoder
/// rollout.
///
/// SagdfnModel::Predict walks the autograd op layer every call: each of
/// the ~(h + f) * L cell steps rebuilds the same Concat/conv/blend
/// sequence, allocating a fresh output tensor per op and re-deriving
/// every shape. For a frozen model none of that can change between
/// requests, so the plan resolves it once at construction:
///
///   - the full kernel sequence (gather-free graph conv, fused GRU tail,
///     row-tiled matmuls) is flattened into a linear instruction list
///     with every weight pointer, buffer offset and row count baked in;
///   - row-local stages are fused into segments: everything between two
///     graph-diffusion gathers (the only stages that read other rows)
///     runs as ONE ParallelFor whose tasks execute the whole chain over
///     their row range, spanning layer and timestep boundaries — a
///     handful of pool dispatches per replay instead of one per op;
///   - all intermediates live in one scratch slab, sized at build time
///     and bump-allocated from the calling thread's ScratchArena per
///     Run — zero per-step heap allocation and no autograd-graph
///     construction during replay;
///   - a one-time dry run in the constructor validates the stream end to
///     end and warms the arena to the slab size.
///
/// Replay is bit-identical to SagdfnModel::Predict: every instruction
/// calls the same dispatched kernels with the same per-row accumulation
/// order as the eager ops it replaces (see tensor::MatMulRowsInto and the
/// *Into helpers in core/fused_ops.h).
///
/// A plan is immutable after construction and safe to replay from many
/// threads concurrently (scratch is per-thread; the x/future_tod/output
/// buffers are per-call). It pins handle copies of every tensor it reads,
/// so it stays valid independent of the model's lifetime. A plan has a
/// batch capacity: the slab is sized for `batch()` rows, and each replay
/// runs the live batch b = x.dim(0), 1 <= b <= batch(), over b * N rows
/// packed at the front of the slab, the layout a plan of capacity b
/// would use. A row's bits do not depend on its batch, so one plan per
/// kind serves every batch size up to its capacity (see
/// serve::FrozenModel).
class RolloutPlan {
 public:
  /// Builds the instruction stream for up to `batch`-row requests against
  /// the frozen `snapshot`, then dry-runs it once at full capacity on
  /// zero inputs (and, for kIncremental, a zero imported state).
  RolloutPlan(const SagdfnModel& model, const AdjacencySnapshot& snapshot,
              int64_t batch, PlanKind kind = PlanKind::kFull);

  /// Replays a kFull plan: `x` [b, history, N, C], `future_tod`
  /// [b, horizon] with 1 <= b <= batch(); returns scaled predictions
  /// [b, horizon, N], bit-identical to SagdfnModel::Predict on the same
  /// inputs.
  tensor::Tensor Run(const tensor::Tensor& x,
                     const tensor::Tensor& future_tod) const;

  /// Replays with encoder-state I/O — the streaming tick entry point.
  /// `x` is [b, encoded_steps(), N, C] (one frame for kIncremental).
  /// `h_in` must be a tensor of state_floats(b) floats for kIncremental
  /// (the previous tick's exported state) and null for kFull; `h_out`,
  /// when non-null, receives the post-encoder hidden state — the resume
  /// point the NEXT tick's kIncremental replay imports. The state holds
  /// the live batch only, so it moves freely between plans of any
  /// capacity >= b. `h_in` and `h_out` may alias: every state row is
  /// consumed before it is rewritten. The decoder never touches the
  /// exported copy.
  tensor::Tensor Run(const tensor::Tensor& x,
                     const tensor::Tensor& future_tod,
                     const tensor::Tensor* h_in, tensor::Tensor* h_out) const;

  PlanKind kind() const { return kind_; }
  /// Encoder steps one replay consumes: `history` for kFull, 1 for
  /// kIncremental.
  int64_t encoded_steps() const { return history_; }
  /// Floats in the carried encoder state of a `live_batch`-row replay:
  /// layers * live_batch * N * hidden, layer-major, then row.
  int64_t state_floats(int64_t live_batch) const {
    return layers_ * live_batch * n_ * hd_;
  }
  /// The same at full capacity: state_floats(batch()).
  int64_t state_floats() const { return state_floats(batch_); }

  /// Batch capacity: the largest live batch one replay accepts.
  int64_t batch() const { return batch_; }
  int64_t num_instructions() const {
    return static_cast<int64_t>(instrs_.size());
  }
  /// Bytes of per-thread arena scratch one replay bump-allocates.
  int64_t scratch_bytes() const { return scratch_bytes_; }
  /// One line per instruction: "<index>: <label>".
  std::string DebugString() const;

 private:
  /// Per-call state handed to every instruction.
  struct RunCtx {
    int64_t batch;     // live batch b
    int64_t rows;      // live rows b * N
    const float* x;    // [b, encoded_steps, N, C]
    const float* ft;   // [b, horizon]
    float* out;        // [b, horizon, N]
    float* slab;       // scratch_bytes() / 4 floats of arena scratch
    const float* h_in = nullptr;  // imported encoder state (kIncremental)
    float* h_out = nullptr;       // exported resume point (optional)
  };
  struct Instr {
    std::string label;
    std::function<void(const RunCtx&)> fn;
  };

  PlanKind kind_ = PlanKind::kFull;
  int64_t batch_ = 0;
  int64_t n_ = 0;        // nodes
  int64_t c_ = 0;        // input channels
  int64_t hd_ = 0;       // hidden dim
  int64_t layers_ = 0;
  int64_t history_ = 0;
  int64_t horizon_ = 0;
  int64_t slab_floats_ = 0;
  int64_t scratch_bytes_ = 0;
  std::vector<Instr> instrs_;
  /// Handle copies pinning every tensor the instructions read (weights,
  /// biases, adjacency, inverse degrees).
  std::vector<tensor::Tensor> pinned_;
};

}  // namespace sagdfn::core

#endif  // SAGDFN_CORE_ROLLOUT_PLAN_H_
