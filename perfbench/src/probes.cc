// Layer probes: time each layer's public functions on the workload's own
// model, snapshot and inputs, and attribute the measured tick and
// training step to those parts.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "autograd/ops.h"
#include "core/entmax.h"
#include "core/fused_ops.h"
#include "core/rollout_plan.h"
#include "core/sns.h"
#include "core/ssma.h"
#include "graph/csr.h"
#include "nn/serialization.h"
#include "obs/telemetry.h"
#include "openloop.h"
#include "optim/optimizer.h"
#include "serve/forecast_cache.h"
#include "serve/registry.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/arena.h"
#include "utils/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = sagdfn::core;
namespace data = sagdfn::data;
namespace serve = sagdfn::serve;
namespace simd = sagdfn::tensor::simd;
namespace ag = sagdfn::autograd;
using sagdfn::tensor::Shape;
using sagdfn::tensor::Tensor;
using sagdfn::utils::ParallelFor;

// Row grain of the probes' own parallel regions, close to the rollout
// plan's segment grain at serving widths.
constexpr int64_t kRowGrain = 256;
constexpr double kProbeSeconds = 0.3;
// The serving engines' max_batch: the largest plan a serve batch replays.
constexpr int64_t kServeBatch = 8;

/// Sets `name` unless the traced workload run already measured it.
class Sink {
 public:
  explicit Sink(Metrics* m) : m_(m) {}
  bool Wants(const std::string& name) const { return !m_->Has(name); }
  void Set(const std::string& name, double v, const std::string& unit) {
    if (Wants(name)) m_->Set(name, v, unit);
  }

 private:
  Metrics* m_;
};

Tensor Random(Shape shape, uint64_t seed, float lo = -1.0f, float hi = 1.0f) {
  sagdfn::utils::Rng rng(seed);
  return Tensor::Uniform(std::move(shape), rng, lo, hi);
}

/// Windows of the test split as [B, h, N, C] / [B, f] batches.
data::Batch TestBatch(const data::ForecastDataset& ds, int64_t batch,
                      uint64_t seed) {
  SplitMix rng(seed);
  const int64_t count = ds.NumSamples(data::Split::kTest);
  std::vector<int64_t> offsets;
  for (int64_t i = 0; i < batch; ++i) offsets.push_back(rng.Below(count));
  return ds.GetBatchAt(data::Split::kTest, offsets);
}

// -- serve/frozen_model, core/rollout_plan ---------------------------------

void ProbeFrozen(const ProbeInputs& in, Sink* out, Tally* tally) {
  const serve::FrozenModel& fm = *in.frozen;
  const core::SagdfnConfig& cfg = fm.config();
  const std::string mapped = in.work_dir + "/probe.sagm";
  const std::string ckpt = in.work_dir + "/probe.ckpt";
  SAGDFN_CHECK(fm.Save(mapped).ok());
  SAGDFN_CHECK(sagdfn::nn::SaveModule(fm.model(), ckpt).ok());

  std::unique_ptr<serve::FrozenModel> loaded;
  out->Set("frozen.load_mapped_ms", MedianMs(3, [&] {
             loaded.reset();
             SAGDFN_CHECK(
                 serve::FrozenModel::LoadMapped(cfg, mapped, &loaded).ok());
           }),
           "ms");
  out->Set("frozen.load_ckpt_ms", MedianMs(3, [&] {
             loaded.reset();
             SAGDFN_CHECK(serve::FrozenModel::Load(cfg, ckpt, &loaded).ok());
           }, 0),
           "ms");
  out->Set("frozen.plan_build_ms", MedianMs(3, [&] {
             core::RolloutPlan plan(fm.model(), fm.snapshot(), kServeBatch);
           }, 0),
           "ms");

  data::Batch b1 = TestBatch(*in.dataset, 1, in.seed + 1);
  data::Batch b8 = TestBatch(*in.dataset, kServeBatch, in.seed + 2);
  // Byte contract at the probe's own shapes: the heap-loaded model must
  // serve the same bytes as the snapshot it was saved from.
  Tensor want = fm.Predict(b1.x, b1.future_tod);
  Tensor got = loaded->Predict(b1.x, b1.future_tod);
  if (std::memcmp(want.data(), got.data(), want.size() * sizeof(float)) != 0) {
    tally->Mismatch("checkpoint-loaded model forecasts differ from the "
                    "snapshot");
  } else {
    tally->Ok();
  }
  out->Set("frozen.predict_ms.b1",
           SteadyUs([&] { fm.Predict(b1.x, b1.future_tod); }, kProbeSeconds,
                    5) / 1e3,
           "ms");
  out->Set("frozen.predict_ms.b8",
           SteadyUs([&] { fm.Predict(b8.x, b8.future_tod); }, kProbeSeconds,
                    3) / 1e3,
           "ms");

  auto inc = fm.PlanFor(1, core::PlanKind::kIncremental);
  Tensor x1 = b1.x.Reshape({1, cfg.history, cfg.num_nodes, cfg.input_dim});
  Tensor frame(Shape({1, 1, cfg.num_nodes, cfg.input_dim}));
  std::memcpy(frame.data(),
              x1.data() + (cfg.history - 1) * cfg.num_nodes * cfg.input_dim,
              frame.size() * sizeof(float));
  Tensor state(Shape({inc->state_floats()}));
  out->Set("plan.run_incremental_ms",
           SteadyUs([&] { inc->Run(frame, b1.future_tod, &state, &state); },
                    kProbeSeconds, 5) / 1e3,
           "ms");
  const int64_t scratch =
      std::max({fm.PlanFor(1)->scratch_bytes(), inc->scratch_bytes(),
                fm.PlanFor(kServeBatch)->scratch_bytes()});
  out->Set("plan.scratch_bytes", static_cast<double>(scratch), "bytes");
  std::remove(mapped.c_str());
}

// -- core/fused_ops, graph/csr, tensor ----------------------------------------

struct KernelCosts {
  double csr_step_ms = 0.0;
  double mm_gate_us = 0.0;
  double mm_cand_us = 0.0;
  double cand_in_us = 0.0;
  double tail_us = 0.0;
};

KernelCosts ProbeKernels(const ProbeInputs& in, Sink* out, Tally* tally) {
  const serve::FrozenModel& fm = *in.frozen;
  const core::SagdfnConfig& cfg = fm.config();
  const core::AdjacencySnapshot& snap = fm.snapshot();
  const int64_t n = cfg.num_nodes;
  const int64_t hd = cfg.hidden_dim;
  const int64_t c = cfg.input_dim + hd;  // width of the [x | h] diffusion
  KernelCosts k;

  Tensor term = Random(Shape({1, n, c}), in.seed + 11);
  Tensor dense_out(Shape({1, n, c}));
  Tensor csr_out(Shape({1, n, c}));
  const sagdfn::graph::NodeShards shards = sagdfn::graph::ComputeNodeShards(
      n, c * static_cast<int64_t>(sizeof(float)));
  k.csr_step_ms = SteadyUs([&] {
                    core::OneStepFastGConvCsrInto(
                        *snap.csr, term.data(), snap.inv_deg.data(),
                        snap.index_set, shards, 1, n, c, csr_out.data());
                  }, kProbeSeconds, 5) / 1e3;
  const double dense_ms =
      SteadyUs([&] {
        core::OneStepFastGConvInto(snap.a_s.data(), term.data(),
                                   snap.inv_deg.data(), snap.index_set, 1, n,
                                   c, dense_out.data());
      }, kProbeSeconds, 5) / 1e3;
  if (std::memcmp(dense_out.data(), csr_out.data(),
                  dense_out.size() * sizeof(float)) != 0) {
    tally->Mismatch("CSR diffusion step differs from the dense step");
  } else {
    tally->Ok();
  }
  const int64_t nnz = snap.csr->nnz();
  out->Set("diffusion.csr_step_ms", k.csr_step_ms, "ms");
  out->Set("diffusion.dense_step_ms", dense_ms, "ms");
  out->Set("diffusion.ns_per_nm",
           k.csr_step_ms * 1e6 / static_cast<double>(n * cfg.m), "ns");
  out->Set("diffusion.nnz_share",
           static_cast<double>(nnz) / static_cast<double>(n * cfg.m), "share");
  // Computed, not measured: stored values and column ids, the gathered
  // term rows, row pointers, inverse degrees and the written output.
  const double bytes = static_cast<double>(nnz) * (4 + 4 + 4 * c) +
                       static_cast<double>(n + 1) * 8 +
                       static_cast<double>(n) * 4 +
                       static_cast<double>(n) * c * 4;
  out->Set("diffusion.bytes_per_step", bytes, "bytes-computed");

  // GRU row segments and row-range matmuls over all N rows, split into
  // parallel row ranges like the plan's fused segments.
  Tensor gates = Random(Shape({n, 2 * hd}), in.seed + 12);
  Tensor x = Random(Shape({n, cfg.input_dim}), in.seed + 13);
  Tensor h = Random(Shape({n, hd}), in.seed + 14);
  Tensor xh(Shape({n, c}));
  Tensor cand = Random(Shape({n, hd}), in.seed + 15);
  Tensor hout(Shape({n, hd}));
  k.cand_in_us = SteadyUs([&] {
    ParallelFor(0, n, kRowGrain, [&](int64_t r0, int64_t r1) {
      core::GruCandidateInputInto(gates.data() + r0 * 2 * hd,
                                  x.data() + r0 * cfg.input_dim,
                                  h.data() + r0 * hd, xh.data() + r0 * c,
                                  nullptr, r1 - r0, cfg.input_dim, hd, true);
    });
  }, kProbeSeconds, 5);
  k.tail_us = SteadyUs([&] {
    ParallelFor(0, n, kRowGrain, [&](int64_t r0, int64_t r1) {
      core::GruTailBlendInto(gates.data() + r0 * 2 * hd, h.data() + r0 * hd,
                             cand.data() + r0 * hd, hout.data() + r0 * hd,
                             nullptr, nullptr, r1 - r0, hd);
    });
  }, kProbeSeconds, 5);
  Tensor w_gate = Random(Shape({c, 2 * hd}), in.seed + 16);
  Tensor w_cand = Random(Shape({c, hd}), in.seed + 17);
  Tensor mm_out(Shape({n, 2 * hd}));
  k.mm_gate_us = SteadyUs([&] {
    ParallelFor(0, n, kRowGrain, [&](int64_t r0, int64_t r1) {
      sagdfn::tensor::MatMulRowsInto(term.data(), w_gate.data(),
                                     mm_out.data(), r0, r1, c, 2 * hd);
    });
  }, kProbeSeconds, 5);
  k.mm_cand_us = SteadyUs([&] {
    ParallelFor(0, n, kRowGrain, [&](int64_t r0, int64_t r1) {
      sagdfn::tensor::MatMulRowsInto(term.data(), w_cand.data(),
                                     mm_out.data(), r0, r1, c, hd);
    });
  }, kProbeSeconds, 5);
  out->Set("gru.candidate_input_us", k.cand_in_us, "us");
  out->Set("gru.tail_blend_us", k.tail_us, "us");
  out->Set("tensor.matmul_rows_us", k.mm_gate_us, "us");
  return k;
}

/// One incremental replay's cost from per-replay instruction counts: the
/// plan's DebugString names each diffusion barrier; every GRU cell step
/// issues 2 (J - 1) of them, plus J gate and J candidate matmuls, one
/// candidate-input and one tail-blend row pass.
void AttributeTick(const ProbeInputs& in, const KernelCosts& k,
                   Metrics* metrics, Sink* out) {
  const core::SagdfnConfig& cfg = in.frozen->config();
  auto inc = in.frozen->PlanFor(1, core::PlanKind::kIncremental);
  std::istringstream lines(inc->DebugString());
  std::string line;
  int64_t diffusions = 0;
  while (std::getline(lines, line)) {
    if (line.find(".diffuse") != std::string::npos) ++diffusions;
  }
  const int64_t j = cfg.diffusion_steps;
  const double cells =
      j > 1 ? static_cast<double>(diffusions) / (2.0 * (j - 1)) : 0.0;
  const double per_cell_ms = 2.0 * (j - 1) * k.csr_step_ms +
                             j * (k.mm_gate_us + k.mm_cand_us) / 1e3 +
                             (k.cand_in_us + k.tail_us) / 1e3;
  const double attributed = cells * per_cell_ms;
  double measured = in.measured_tick_ms;
  if (!std::isfinite(measured)) measured = metrics->Get("plan.run_incremental_ms");
  std::printf("attribution tick: %lld diffusion barriers, %.0f cell steps, "
              "attributed %.3f ms of %.3f ms\n",
              static_cast<long long>(diffusions), cells, attributed, measured);
  out->Set("stream.attributed_share", attributed / measured, "share");
}

// -- tensor/simd, utils/parallel ---------------------------------------------

void ProbeSimd(Sink* out) {
  constexpr int64_t kLen = 16384;
  constexpr int64_t kRows = 1024;
  constexpr int64_t kHidden = 16;
  Tensor a = Random(Shape({kLen}), 21, -2.0f, 2.0f);
  Tensor b = Random(Shape({kLen}), 22, -2.0f, 2.0f);
  Tensor z = Random(Shape({kLen}), 23, 0.0f, 1.0f);
  Tensor o(Shape({kLen}));
  Tensor xi = Random(Shape({kRows, 3 * kHidden}), 24);
  Tensor hh = Random(Shape({kRows, 3 * kHidden}), 25);
  Tensor hs = Random(Shape({kRows, kHidden}), 26);
  Tensor ho(Shape({kRows, kHidden}));
  const bool has_avx2 = simd::Avx2Available();
  if (!has_avx2) {
    std::printf("note: AVX2 is unavailable; simd.*.avx2_us report the "
                "scalar table\n");
  }
  for (simd::Level level : {simd::Level::kAvx2, simd::Level::kScalar}) {
    const simd::Kernels& kt = simd::KernelsFor(
        level == simd::Level::kAvx2 && !has_avx2 ? simd::Level::kScalar
                                                 : level);
    const std::string suffix =
        std::string(".") + simd::LevelName(level) + "_us";
    auto time = [&](const char* name, const std::function<void()>& fn) {
      out->Set(std::string("simd.") + name + suffix,
               SteadyUs(fn, 0.05, 20), "us");
    };
    time("add", [&] { kt.add(a.data(), b.data(), o.data(), kLen); });
    time("mul", [&] { kt.mul(a.data(), b.data(), o.data(), kLen); });
    time("gru_blend",
         [&] { kt.gru_blend(z.data(), a.data(), b.data(), o.data(), kLen); });
    time("exp", [&] { kt.vexp(a.data(), o.data(), kLen); });
    time("sigmoid", [&] { kt.sigmoid(a.data(), o.data(), kLen); });
    time("tanh", [&] { kt.vtanh(a.data(), o.data(), kLen); });
    time("gru_step", [&] {
      for (int64_t r = 0; r < kRows; ++r) {
        kt.gru_step(xi.data() + r * 3 * kHidden, hh.data() + r * 3 * kHidden,
                    hs.data() + r * kHidden, ho.data() + r * kHidden, nullptr,
                    nullptr, nullptr, kHidden);
      }
    });
  }
}

void ProbePool(Sink* out) {
  auto region = [] { ParallelFor(0, 64, 1, [](int64_t, int64_t) {}); };
  out->Set("pool.region_us.1caller", SteadyUs(region, 0.1, 200), "us");
  std::atomic<bool> stop{false};
  std::thread other([&] {
    while (!stop.load(std::memory_order_relaxed)) region();
  });
  const double two = SteadyUs(region, 0.1, 200);
  stop.store(true);
  other.join();
  out->Set("pool.region_us.2callers", two, "us");
}

// -- core/sns, core/ssma, core/entmax ----------------------------------------

void ProbeGraphLearning(const ProbeInputs& in, Sink* out) {
  const core::SagdfnModel& model = in.frozen->model();
  const core::SagdfnConfig& cfg = model.config();
  const Tensor& emb = model.embeddings().value();
  core::SignificantNeighborSampler sns(cfg.num_nodes, cfg.m, cfg.k,
                                       in.seed + 31);
  out->Set("sns.sample_ms", MedianMs(3, [&] { sns.Sample(emb, true); }),
           "ms");
  core::SsmaConfig sc;
  sc.embedding_dim = cfg.embedding_dim;
  sc.m = cfg.m;
  sc.heads = cfg.heads;
  sc.ffn_hidden = cfg.ffn_hidden;
  sc.alpha = cfg.alpha;
  sc.use_entmax = cfg.use_entmax;
  sagdfn::utils::Rng rng(in.seed + 32);
  core::SparseSpatialAttention ssma(sc, rng);
  out->Set("ssma.forward_ms", MedianMs(3, [&] {
             ssma.Forward(model.embeddings(), in.frozen->snapshot().index_set);
           }),
           "ms");
  Tensor scores = Random(Shape({cfg.num_nodes, cfg.m, 2}), in.seed + 33);
  out->Set("entmax.forward_us", SteadyUs([&] {
             core::EntmaxForward(scores, cfg.alpha, 1);
           }, kProbeSeconds, 3),
           "us");
}

// -- autograd, optim, data, core/trainer -------------------------------------

void ProbeTrainStep(const ProbeInputs& in, Sink* out, Tally* tally) {
  const core::SagdfnConfig& cfg = in.frozen->config();
  core::SagdfnModel model(cfg);
  model.SetTraining(true);
  sagdfn::optim::Adam adam(model.Parameters(), 0.01);
  const int64_t train = in.dataset->NumSamples(data::Split::kTrain);
  SplitMix rng(in.seed + 41);
  std::vector<double> fetch, fwd, bwd, clip, step, wall;
  int64_t skipped = 0;
  constexpr int kSteps = 4;
  for (int s = 0; s <= kSteps; ++s) {
    const int64_t t0 = NowNs();
    std::vector<int64_t> offsets;
    for (int64_t i = 0; i < in.train_batch; ++i) {
      offsets.push_back(rng.Below(train));
    }
    data::Batch batch = in.dataset->GetBatchAt(data::Split::kTrain, offsets);
    const int64_t t1 = NowNs();
    ag::Variable pred =
        model.Forward(batch.x, batch.future_tod, s, &batch.y_scaled, 0.5);
    ag::Variable loss = ag::L1Loss(pred, ag::Variable(batch.y_scaled));
    const int64_t t2 = NowNs();
    model.ZeroGrad();
    loss.Backward();
    const int64_t t3 = NowNs();
    const double norm = sagdfn::optim::ClipGradNorm(adam.params(), 5.0);
    const int64_t t4 = NowNs();
    if (std::isfinite(norm) && std::isfinite(loss.value().Item())) {
      adam.Step();
    } else {
      ++skipped;
    }
    const int64_t t5 = NowNs();
    if (s == 0) continue;  // warm-up step
    fetch.push_back(NsToMs(static_cast<double>(t1 - t0)));
    fwd.push_back(NsToMs(static_cast<double>(t2 - t1)));
    bwd.push_back(NsToMs(static_cast<double>(t3 - t2)));
    clip.push_back(NsToMs(static_cast<double>(t4 - t3)));
    step.push_back(NsToMs(static_cast<double>(t5 - t4)));
    wall.push_back(NsToMs(static_cast<double>(t5 - t0)));
  }
  tally->Ok(kSteps + 1 - skipped);
  if (skipped > 0) tally->Fail("probe training steps were non-finite", skipped);
  const double parts = Median(fetch) + Median(fwd) + Median(bwd) +
                       Median(clip) + Median(step);
  out->Set("data.get_batch_ms", Median(fetch), "ms");
  out->Set("train.forward_ms", Median(fwd), "ms");
  out->Set("train.backward_ms", Median(bwd), "ms");
  out->Set("train.clip_ms", Median(clip), "ms");
  out->Set("train.adam_step_ms", Median(step), "ms");
  out->Set("train.skipped_batches", static_cast<double>(skipped), "count");
  double measured = in.measured_step_ms;
  if (!std::isfinite(measured)) measured = Median(wall);
  std::printf("attribution train step (batch %lld): parts %.2f ms of "
              "%.2f ms\n",
              static_cast<long long>(in.train_batch), parts, measured);
  out->Set("train.attributed_share", parts / measured, "share");
}

// -- serve/engine, serve/registry, serve/forecast_cache ----------------------

void ProbeEngineAndRegistry(const ProbeInputs& in, Metrics* metrics,
                            Sink* out, Tally* tally) {
  const serve::FrozenModel& fm = *in.frozen;
  const core::SagdfnConfig& cfg = fm.config();
  if (out->Wants("engine.submit_us")) {
    serve::EngineOptions eo;
    eo.max_batch = 8;
    eo.max_wait_us = 1000;
    eo.tenant = "probe";
    serve::InferenceEngine engine(in.frozen, eo);
    std::vector<Tensor> xs, tods;
    for (int w = 0; w < 16; ++w) {
      data::Batch b = TestBatch(*in.dataset, 1, in.seed + 50 + w);
      xs.push_back(b.x.Reshape({cfg.history, cfg.num_nodes, cfg.input_dim}));
      tods.push_back(b.future_tod.Reshape({cfg.horizon}));
    }
    // About 40% of one worker's batch-8 throughput, for two seconds.
    const double b8_ms = metrics->Get("frozen.predict_ms.b8");
    const double rate = 0.4 * 8.0 * 1000.0 / b8_ms;
    const int64_t count =
        std::clamp<int64_t>(static_cast<int64_t>(rate * 2.0), 20, 600);
    SplitMix rng(in.seed + 51);
    std::vector<Arrival> sched =
        PoissonSchedule(rng, rate, count, false, 16);
    sagdfn::obs::Telemetry& tel = sagdfn::obs::Telemetry::Global();
    const bool was = tel.CollectionEnabled();
    tel.SetCollectionEnabled(true);
    const sagdfn::obs::TimerStats before =
        tel.timer("serve.probe.batch.compute");
    OpenLoopResult r = RunOpenLoop(
        sched,
        [&](const Arrival& a) { return engine.Submit(xs[a.window], tods[a.window]); },
        nullptr);
    const sagdfn::obs::TimerStats after =
        tel.timer("serve.probe.batch.compute");
    tel.SetCollectionEnabled(was);
    const int64_t fails = r.Failures();
    tally->Ok(count - fails);
    if (fails > 0) tally->Fail("engine probe requests", fails);
    std::vector<double> submit_us, lag;
    for (const Completion& c : r.done) {
      submit_us.push_back(static_cast<double>(c.submit_ns) / 1e3);
      lag.push_back(c.gen_lag_ms());
    }
    const serve::EngineStats es = engine.stats();
    const int64_t batches = after.count - before.count;
    const double compute_ms =
        batches > 0 ? (after.total_seconds - before.total_seconds) * 1e3 /
                          batches
                    : 0.0;
    out->Set("engine.submit_us", Median(submit_us), "us");
    out->Set("engine.batch_size_mean",
             es.batches > 0 ? static_cast<double>(es.completed) / es.batches
                            : 0.0,
             "requests");
    out->Set("engine.batch_compute_ms", compute_ms, "ms");
    out->Set("engine.wait_ms_mean", Mean(r.LatenciesMs()) - compute_ms, "ms");
    out->Set("bench.gen_lag_tail_ms", Percentile(lag, 99.0), "ms");

    serve::RegistryOptions ro;
    data::Batch eval = in.dataset->GetBatch(data::Split::kValidation, 0,
                                            4);
    ro.eval_x = eval.x;
    ro.eval_tod = eval.future_tod;
    ro.eval_y = eval.y_scaled;
    ro.tenant = "probe";
    serve::ModelRegistry registry(&engine, ro);
    const std::string ckpt = in.work_dir + "/probe.ckpt";
    std::vector<double> publish_ms;
    for (int i = 0; i < 3; ++i) {
      const int64_t t0 = NowNs();
      sagdfn::utils::Status st = registry.Publish(ckpt);
      publish_ms.push_back(NsToMs(static_cast<double>(NowNs() - t0)));
      if (!st.ok()) {
        tally->Fail("probe publish rejected: " + st.ToString());
      } else {
        tally->Ok();
      }
    }
    const serve::RegistryStats rs = registry.stats();
    out->Set("registry.publish_ms", Median(publish_ms), "ms");
    out->Set("registry.rejected", static_cast<double>(rs.rejected), "count");
    out->Set("registry.rollbacks", static_cast<double>(rs.rollbacks), "count");
  }
}

void ProbeStream(const ProbeInputs& in, Sink* out, Tally* tally) {
  if (!out->Wants("stream.on_tick_ms")) return;
  const core::SagdfnConfig& cfg = in.frozen->config();
  const data::ForecastDataset& ds = *in.dataset;
  const int64_t n = cfg.num_nodes;
  const int64_t steps = ds.series().num_steps();
  SplitMix rng(in.seed + 61);
  const int64_t start = rng.Below(steps);
  auto frame_at = [&](int64_t k, Tensor* frame, Tensor* ft) {
    const int64_t t = (start + k) % steps;
    *frame = Tensor(Shape({n, cfg.input_dim}));
    const float tod = static_cast<float>(ds.series().TimeOfDay(t));
    for (int64_t i = 0; i < n; ++i) {
      frame->data()[i * cfg.input_dim] = ds.scaled_values().data()[t * n + i];
      frame->data()[i * cfg.input_dim + 1] = tod;
    }
    *ft = Tensor(Shape({cfg.horizon}));
    for (int64_t j = 0; j < cfg.horizon; ++j) {
      ft->data()[j] = static_cast<float>(ds.series().TimeOfDay(t + 1 + j));
    }
  };
  serve::ForecastCache cache;
  serve::TickStreamer streamer(in.frozen, &cache);
  Tensor frame, ft;
  for (int64_t k = 0; k <= cfg.history; ++k) {
    frame_at(k, &frame, &ft);
    streamer.OnTick(frame, ft);
  }
  std::atomic<bool> stop{false};
  std::vector<double> read_ns;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire) || read_ns.size() < 2000) {
      const int64_t t0 = NowNs();
      auto f = cache.Read();
      read_ns.push_back(static_cast<double>(NowNs() - t0));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::vector<double> tick_ms;
  for (int64_t k = cfg.history + 1; k <= cfg.history + 24; ++k) {
    frame_at(k, &frame, &ft);
    const int64_t t0 = NowNs();
    auto f = streamer.OnTick(frame, ft);
    tick_ms.push_back(NsToMs(static_cast<double>(NowNs() - t0)));
    if (f == nullptr || !f->incremental) {
      tally->Fail("probe tick did not publish an incremental forecast");
    } else {
      tally->Ok();
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  const serve::ForecastCache::Stats cs = cache.stats();
  out->Set("stream.on_tick_ms", Median(tick_ms), "ms");
  out->Set("cache.read_ns.p50", Percentile(read_ns, 50.0), "ns");
  out->Set("cache.read_ns.p99", Percentile(read_ns, 99.0), "ns");
  out->Set("cache.hit_ratio",
           cs.reads > 0 ? static_cast<double>(cs.hits) / cs.reads : 0.0,
           "share");
}

}  // namespace

void RunLayerProbes(const ProbeInputs& in, Metrics* metrics, Tally* tally) {
  Sink out(metrics);
  const int64_t t0 = NowNs();
  ProbeFrozen(in, &out, tally);
  const KernelCosts k = ProbeKernels(in, &out, tally);
  AttributeTick(in, k, metrics, &out);
  ProbeSimd(&out);
  ProbePool(&out);
  ProbeGraphLearning(in, &out);
  ProbeTrainStep(in, &out, tally);
  ProbeEngineAndRegistry(in, metrics, &out, tally);
  ProbeStream(in, &out, tally);
  out.Set("arena.high_water_bytes",
          static_cast<double>(sagdfn::utils::ScratchArena::ProcessHighWater()),
          "bytes");
  std::remove((in.work_dir + "/probe.ckpt").c_str());
  std::printf("probes took %.1f s\n",
              static_cast<double>(NowNs() - t0) / 1e9);
}

}  // namespace perfbench
