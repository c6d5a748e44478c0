#include "core/rollout_plan.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "core/fused_ops.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/arena.h"
#include "utils/check.h"
#include "utils/parallel.h"

namespace sagdfn::core {

namespace simd = ::sagdfn::tensor::simd;

using tensor::Shape;
using tensor::Tensor;
using utils::ParallelFor;
using utils::ScratchArena;

namespace {

// Per-row work (in ~flops) a fused row-segment task should own. Matches
// kMatMulGrainFlops in tensor_ops.cc: segment tasks carry one or two
// small matmul rows plus the elementwise glue, so this keeps task sizes
// in the same regime as the eager matmuls without fragmenting the pool.
constexpr int64_t kSegmentGrainFlops = 1 << 16;

}  // namespace

RolloutPlan::RolloutPlan(const SagdfnModel& model,
                         const AdjacencySnapshot& snapshot, int64_t batch,
                         PlanKind kind) {
  const SagdfnConfig& cfg = model.config();
  SAGDFN_CHECK_GT(batch, 0);
  kind_ = kind;
  batch_ = batch;
  n_ = cfg.num_nodes;
  c_ = cfg.input_dim;
  hd_ = cfg.hidden_dim;
  // An incremental plan encodes exactly one new frame per replay; its
  // hidden state comes from the previous tick instead of a zero init.
  history_ = kind == PlanKind::kIncremental ? 1 : cfg.history;
  horizon_ = cfg.horizon;
  SAGDFN_CHECK_EQ(snapshot.a_s.dim(0), n_);
  SAGDFN_CHECK_EQ(snapshot.a_s.dim(1),
                  static_cast<int64_t>(snapshot.index_set.size()));
  SAGDFN_CHECK_EQ(snapshot.inv_deg.size(), n_);
  SAGDFN_CHECK_EQ(model.output_projection().in_features(), hd_);
  SAGDFN_CHECK_EQ(model.output_projection().out_features(), 1);

  // Local copies for capture (instructions must not reference `this`).
  const int64_t n = n_;
  const int64_t c = c_;
  const int64_t hd = hd_;
  const int64_t history = history_;
  const int64_t horizon = horizon_;

  auto pin = [this](const Tensor& t) -> const float* {
    pinned_.push_back(t);
    return pinned_.back().data();
  };
  const float* pa = pin(snapshot.a_s);
  const float* pinv = pin(snapshot.inv_deg);
  auto idx = std::make_shared<const std::vector<int64_t>>(snapshot.index_set);

  // Scratch slab layout. Buffers are reused across timesteps; xh,
  // term_a and term_b hold the cell's [input | h] rows, in_w wide.
  const int64_t in_w = c + hd;
  // Offsets are in floats per row: a replay over ctx.rows live rows finds
  // region X at slab + off_X * ctx.rows, so a batch below capacity packs
  // into the front of the slab exactly as a plan of its own size would.
  const int64_t off_h = 0;                     // hd
  const int64_t off_xh = off_h + hd;           // in_w
  const int64_t off_ta = off_xh + in_w;        // in_w
  const int64_t off_tb = off_ta + in_w;        // in_w
  const int64_t off_mm = off_tb + in_w;        // 2hd
  const int64_t off_g = off_mm + 2 * hd;       // 2hd
  const int64_t off_cand = off_g + 2 * hd;     // hd
  const int64_t off_pred = off_cand + hd;      // 1
  const int64_t off_dec = off_pred + 1;        // c
  slab_floats_ = (off_dec + c) * batch_ * n;
  scratch_bytes_ = slab_floats_ * static_cast<int64_t>(sizeof(float));

  auto emit = [this](std::string label,
                     std::function<void(const RunCtx&)> fn) {
    instrs_.push_back({std::move(label), std::move(fn)});
  };

  // --- fused row-segment emitter -------------------------------------
  //
  // Every stage of the rollout except the graph-diffusion gather is
  // row-local: for rows [r0, r1) it reads only rows [r0, r1) of buffers
  // written earlier in the stream (plus run-wide constants) and writes
  // only rows [r0, r1). Such stages are queued as RowOps and flushed as
  // ONE instruction running a single ParallelFor whose tasks execute the
  // whole chain over their row range. This collapses the per-stage
  // dispatch cost (the dominant replay overhead at serving shapes) while
  // leaving every per-row value chain — and therefore every output
  // bit — identical to dispatching each stage separately.
  //
  // The diffusion gather reads arbitrary rows of its input, so it is a
  // barrier: the pending segment is flushed before it and it gets its
  // own instruction. Those gathers are the ONLY barriers in the rollout,
  // so segments span timestep boundaries.
  using RowOp = std::function<void(const RunCtx&, int64_t, int64_t)>;
  struct Segment {
    std::vector<RowOp> ops;
    std::string first;
    std::string last;
    int64_t cost = 0;  // approx per-row flops, for grain selection
  };
  Segment seg;

  auto emit_row = [&](const std::string& label, int64_t cost_per_row,
                      RowOp op) {
    if (seg.ops.empty()) seg.first = label;
    seg.last = label;
    seg.cost += cost_per_row;
    seg.ops.push_back(std::move(op));
  };

  auto flush = [&]() {
    if (seg.ops.empty()) return;
    auto ops = std::make_shared<const std::vector<RowOp>>(std::move(seg.ops));
    const int64_t grain = std::max<int64_t>(
        1, kSegmentGrainFlops / std::max<int64_t>(1, seg.cost));
    std::string label =
        ops->size() == 1 ? seg.first
                         : "fuse{" + seg.first + ".." + seg.last + "}x" +
                               std::to_string(ops->size());
    seg = Segment{};
    emit(std::move(label), [=](const RunCtx& ctx) {
      ParallelFor(0, ctx.rows, grain, [&](int64_t r0, int64_t r1) {
        for (const auto& op : *ops) op(ctx, r0, r1);
      });
    });
  };

  // Where a cell step reads its input from.
  enum class Src { kHistory, kDecoder };

  // One FastGraphConv application: xh (rows x in_w, packed) -> dst
  // (rows x out_w). Mirrors FastGraphConv::Forward exactly: W_0 matmul,
  // then per diffusion step a fused graph-diffusion (barrier), a W_j
  // matmul into mm scratch and an in-place accumulate, then the bias
  // row-add. Matmul rows use the same per-row order as the eager
  // BatchedMatMul (see tensor::MatMulRowsInto), and the diffusion runs
  // the dense slim kernel, which is byte-identical to the eager path's
  // CSR gather.
  auto emit_conv = [&](const std::string& tag, const FastGraphConv& conv,
                       int64_t out_w, int64_t off_dst) {
    SAGDFN_CHECK_EQ(conv.in_dim(), in_w);
    SAGDFN_CHECK_EQ(conv.out_dim(), out_w);
    const auto& ws = conv.weights();
    const float* w0 = pin(ws[0].value());
    emit_row(tag + ".mm0", 2 * in_w * out_w,
             [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
               tensor::MatMulRowsInto(ctx.slab + off_xh * ctx.rows, w0,
                                      ctx.slab + off_dst * ctx.rows, r0, r1,
                                      in_w, out_w);
             });
    int64_t off_term = off_xh;
    for (int64_t j = 1; j < conv.diffusion_steps(); ++j) {
      const int64_t off_next = (j % 2 == 1) ? off_ta : off_tb;
      flush();
      emit(tag + ".diffuse" + std::to_string(j), [=](const RunCtx& ctx) {
        OneStepFastGConvInto(pa, ctx.slab + off_term * ctx.rows, pinv, *idx,
                             ctx.batch, n, in_w,
                             ctx.slab + off_next * ctx.rows);
      });
      const float* wj = pin(ws[j].value());
      emit_row(tag + ".mm" + std::to_string(j), 2 * in_w * out_w,
               [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
                 tensor::MatMulRowsInto(ctx.slab + off_next * ctx.rows, wj,
                                        ctx.slab + off_mm * ctx.rows, r0, r1,
                                        in_w, out_w);
               });
      emit_row(tag + ".acc" + std::to_string(j), out_w,
               [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
                 simd::K().acc_add(ctx.slab + off_dst * ctx.rows + r0 * out_w,
                                   ctx.slab + off_mm * ctx.rows + r0 * out_w,
                                   (r1 - r0) * out_w);
               });
      off_term = off_next;
    }
    const float* bias = pin(conv.bias().value());
    emit_row(tag + ".bias", out_w,
             [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
               const simd::Kernels& kern = simd::K();
               float* dst = ctx.slab + off_dst * ctx.rows;
               for (int64_t r = r0; r < r1; ++r) {
                 kern.add(dst + r * out_w, bias, dst + r * out_w, out_w);
               }
             });
  };

  // One GConvGruCell application for timestep label `tag`, updating h
  // in place. Mirrors GConvGruCell::Forward; per-row kernels match the
  // *Into helpers in core/fused_ops.cc.
  const GConvGruCell& cell = model.cell();
  auto emit_cell = [&](const std::string& tag, Src src, int64_t t) {
    // Stage [input | h] rows into the packed xh buffer.
    emit_row(tag + ".xh", in_w,
             [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
               float* xh = ctx.slab + off_xh * ctx.rows;
               const float* hb = ctx.slab + off_h * ctx.rows;
               for (int64_t r = r0; r < r1; ++r) {
                 float* row = xh + r * in_w;
                 if (src == Src::kHistory) {
                   const int64_t bi = r / n;
                   const int64_t i = r - bi * n;
                   std::memcpy(row, ctx.x + ((bi * history + t) * n + i) * c,
                               sizeof(float) * c);
                 } else {
                   std::memcpy(row, ctx.slab + off_dec * ctx.rows + r * c,
                               sizeof(float) * c);
                 }
                 std::memcpy(row + c, hb + r * hd, sizeof(float) * hd);
               }
             });

    emit_conv(tag + ".gate", cell.gate_conv(), 2 * hd, off_g);

    // Overwrite the h tail of xh with r*h: xh becomes [input | r*h], the
    // candidate conv input (the x head is already staged). Same per-row
    // kernel as GruCandidateInputInto with copy_x = false.
    emit_row(tag + ".cand_in", 8 * hd,
             [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
               const simd::Kernels& kern = simd::K();
               const float* g = ctx.slab + off_g * ctx.rows;
               const float* hb = ctx.slab + off_h * ctx.rows;
               float* xh = ctx.slab + off_xh * ctx.rows;
               for (int64_t r = r0; r < r1; ++r) {
                 kern.sigmoid_mul(g + r * 2 * hd, hb + r * hd,
                                  xh + r * in_w + c, /*r_out=*/nullptr, hd);
               }
             });

    emit_conv(tag + ".cand", cell.candidate_conv(), hd, off_cand);

    // In-place GRU tail: h = z*h + (1-z)*tanh(candidate). Same per-row
    // kernel as GruTailBlendInto (gru_tail supports out == h).
    emit_row(tag + ".blend", 12 * hd,
             [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
               const simd::Kernels& kern = simd::K();
               const float* g = ctx.slab + off_g * ctx.rows;
               const float* cp = ctx.slab + off_cand * ctx.rows;
               float* hb = ctx.slab + off_h * ctx.rows;
               for (int64_t r = r0; r < r1; ++r) {
                 kern.gru_tail(g + r * 2 * hd + hd, hb + r * hd, cp + r * hd,
                               hb + r * hd, /*z_out=*/nullptr,
                               /*t_out=*/nullptr, hd);
               }
             });
  };

  if (kind == PlanKind::kIncremental) {
    // Resume point: import the previous tick's exported encoder state
    // byte-for-byte into the slab's hidden region, which has the state's
    // layout. Row-local, so it fuses into the first segment like init_h
    // does.
    emit_row("load_h", hd, [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
      std::memcpy(ctx.slab + off_h * ctx.rows + r0 * hd, ctx.h_in + r0 * hd,
                  sizeof(float) * (r1 - r0) * hd);
    });
  } else {
    emit_row("init_h", hd, [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
      std::memset(ctx.slab + off_h * ctx.rows + r0 * hd, 0,
                  sizeof(float) * (r1 - r0) * hd);
    });
  }

  for (int64_t t = 0; t < history; ++t) {
    emit_cell("enc.t" + std::to_string(t), Src::kHistory, t);
  }

  // Encoder-prefix resume point: export the post-encoder hidden state
  // before the decoder mutates it. Skipped per call when ctx.h_out is
  // null; row-local, so it rides in whatever segment is pending.
  emit_row("save_h", hd, [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
    if (ctx.h_out == nullptr) return;
    std::memcpy(ctx.h_out + r0 * hd, ctx.slab + off_h * ctx.rows + r0 * hd,
                sizeof(float) * (r1 - r0) * hd);
  });

  const nn::Linear& proj = model.output_projection();
  const float* wp = pin(proj.weight().value());
  const bool proj_bias = proj.has_bias();
  const float proj_bias_v =
      proj_bias ? proj.bias().value().data()[0] : 0.0f;

  for (int64_t t = 0; t < horizon; ++t) {
    const std::string step = "dec.t" + std::to_string(t);
    // The first decoder input is the last observation, read straight
    // from x; later steps consume the staged dec buffer.
    emit_cell(step, t == 0 ? Src::kHistory : Src::kDecoder, history - 1);
    emit_row(step + ".proj", 2 * hd,
             [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
               float* pred = ctx.slab + off_pred * ctx.rows;
               tensor::MatMulRowsInto(ctx.slab + off_h * ctx.rows, wp, pred,
                                      r0, r1, hd, 1);
               if (proj_bias) {
                 simd::K().add_s(pred + r0, proj_bias_v, pred + r0, r1 - r0);
               }
             });
    emit_row(step + ".store", 1,
             [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
               const float* pred = ctx.slab + off_pred * ctx.rows;
               for (int64_t r = r0; r < r1; ++r) {
                 const int64_t bi = r / n;
                 ctx.out[(bi * horizon + t) * n + (r - bi * n)] = pred[r];
               }
             });
    if (t + 1 < horizon) {
      // Next decoder input rows: [prediction, tod of step t] (matches
      // the eager decoder's Concat).
      emit_row(step + ".next", c,
               [=](const RunCtx& ctx, int64_t r0, int64_t r1) {
                 float* dec = ctx.slab + off_dec * ctx.rows;
                 const float* pred = ctx.slab + off_pred * ctx.rows;
                 for (int64_t r = r0; r < r1; ++r) {
                   float* row = dec + r * c;
                   row[0] = pred[r];
                   row[1] = ctx.ft[(r / n) * horizon + t];
                 }
               });
    }
  }
  flush();

  // Dry run on zero inputs: validates the whole stream end to end and
  // warms the constructing thread's arena to the slab size. Incremental
  // plans resume from a zero state (and exercise the export path).
  if (kind_ == PlanKind::kIncremental) {
    Tensor state{Shape({state_floats()})};
    Run(Tensor{Shape({batch_, history_, n_, c_})},
        Tensor{Shape({batch_, horizon_})}, &state, &state);
  } else {
    Run(Tensor{Shape({batch_, history_, n_, c_})},
        Tensor{Shape({batch_, horizon_})});
  }
}

Tensor RolloutPlan::Run(const Tensor& x, const Tensor& future_tod) const {
  SAGDFN_CHECK(kind_ == PlanKind::kFull);
  return Run(x, future_tod, /*h_in=*/nullptr, /*h_out=*/nullptr);
}

Tensor RolloutPlan::Run(const Tensor& x, const Tensor& future_tod,
                        const Tensor* h_in, Tensor* h_out) const {
  SAGDFN_CHECK_EQ(x.ndim(), 4);
  const int64_t b = x.dim(0);
  SAGDFN_CHECK_GE(b, 1);
  SAGDFN_CHECK_LE(b, batch_);
  SAGDFN_CHECK_EQ(x.dim(1), history_);
  SAGDFN_CHECK_EQ(x.dim(2), n_);
  SAGDFN_CHECK_EQ(x.dim(3), c_);
  SAGDFN_CHECK_EQ(future_tod.ndim(), 2);
  SAGDFN_CHECK_EQ(future_tod.dim(0), b);
  SAGDFN_CHECK_EQ(future_tod.dim(1), horizon_);
  if (kind_ == PlanKind::kIncremental) {
    SAGDFN_CHECK(h_in != nullptr);
    SAGDFN_CHECK_EQ(h_in->size(), state_floats(b));
  } else {
    SAGDFN_CHECK(h_in == nullptr);
  }
  if (h_out != nullptr) {
    SAGDFN_CHECK_EQ(h_out->size(), state_floats(b));
  }

  Tensor out{Shape({b, horizon_, n_})};
  ScratchArena& arena = ScratchArena::ThreadLocal();
  ScratchArena::Scope scope(arena);
  RunCtx ctx;
  ctx.batch = b;
  ctx.rows = b * n_;
  ctx.x = x.data();
  ctx.ft = future_tod.data();
  ctx.out = out.data();
  ctx.slab = arena.AllocArray<float>(slab_floats_);
  ctx.h_in = h_in != nullptr ? h_in->data() : nullptr;
  ctx.h_out = h_out != nullptr ? h_out->data() : nullptr;
  for (const Instr& ins : instrs_) ins.fn(ctx);
  return out;
}

std::string RolloutPlan::DebugString() const {
  std::ostringstream os;
  for (size_t i = 0; i < instrs_.size(); ++i) {
    os << i << ": " << instrs_[i].label << "\n";
  }
  return os.str();
}

}  // namespace sagdfn::core
