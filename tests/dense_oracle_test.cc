// Differential oracle for the slim (N x M) SAGDFN pipeline.
//
// Two independent references check the optimized path:
//
//  1. Forward oracles: plain double-precision loop implementations of
//     SSMA, the fast graph convolution, and the GConv-GRU cell over the
//     DENSE N x N adjacency — no SIMD, no fused kernels, no threading,
//     no autograd. The optimized float pipeline must agree to 1e-5.
//
//  2. Gradient oracles: an alternative autograd graph built from basic
//     ops only, where every slim gather (IndexSelect, the fused
//     GraphConv node, GruBlend) is replaced by multiplication with an
//     explicit selection matrix P [M, N] and dense matmuls. Both graphs
//     share the SAME parameter leaves, so after running Backward on
//     each (with ZeroGrad in between) their parameter and input
//     gradients must agree to 1e-5.
#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/entmax.h"
#include "core/fast_gconv.h"
#include "core/ssma.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace sagdfn::core {
namespace {

namespace ag = ::sagdfn::autograd;
using tensor::Shape;
using tensor::Tensor;

constexpr double kTol = 1e-5;

// ---------------------------------------------------------------------------
// Shared helpers.

std::map<std::string, ag::Variable> ParamMap(nn::Module& module) {
  std::map<std::string, ag::Variable> map;
  for (auto& [name, param] : module.NamedParameters()) {
    map.emplace(name, param);
  }
  return map;
}

/// Selection matrix P [M, N] with P[j, index_set[j]] = 1, so that
/// MatMul(P, E) == IndexSelect(E, 0, index_set) and MatMul(a_s, P) is the
/// dense N x N adjacency.
ag::Variable SelectionMatrix(const std::vector<int64_t>& index_set,
                             int64_t n) {
  Tensor p = Tensor::Zeros(
      Shape({static_cast<int64_t>(index_set.size()), n}));
  for (size_t j = 0; j < index_set.size(); ++j) {
    p.At({static_cast<int64_t>(j), index_set[j]}) = 1.0f;
  }
  return ag::Variable(p);
}

/// A shuffled distinct index set of size m over [0, n).
std::vector<int64_t> MakeIndexSet(int64_t n, int64_t m, utils::Rng& rng) {
  std::vector<int64_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  rng.Shuffle(all);
  all.resize(m);
  return all;
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(
        worst, std::abs(static_cast<double>(a.data()[i]) - b.data()[i]));
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Double-precision forward references (plain loops, dense adjacency).

/// entmax along a length-n vector: same bisection as core/entmax.cc but
/// entirely in double.
std::vector<double> EntmaxRef(const std::vector<double>& z, double alpha) {
  const double am1 = alpha - 1.0;
  const double inv_am1 = 1.0 / am1;
  const double z_max = *std::max_element(z.begin(), z.end());
  double tau_lo = am1 * z_max - 1.0;
  double tau_hi = am1 * z_max;
  const auto mass = [&](double tau) {
    double total = 0.0;
    for (double zi : z) {
      const double t = am1 * zi - tau;
      if (t > 0.0) total += std::pow(t, inv_am1);
    }
    return total;
  };
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (tau_lo + tau_hi);
    if (mass(mid) >= 1.0) {
      tau_lo = mid;
    } else {
      tau_hi = mid;
    }
  }
  const double tau = 0.5 * (tau_lo + tau_hi);
  std::vector<double> p(z.size());
  double total = 0.0;
  for (size_t i = 0; i < z.size(); ++i) {
    const double t = am1 * z[i] - tau;
    p[i] = t > 0.0 ? std::pow(t, inv_am1) : 0.0;
    total += p[i];
  }
  if (total > 0.0) {
    for (double& pi : p) pi /= total;
  }
  return p;
}

/// SSMA forward in double: E_bar -> per-head FFN -> entmax over M ->
/// concat -> W_a. Parameters are read from the module's NamedParameters.
Tensor SsmaForwardRef(const std::map<std::string, ag::Variable>& params,
                      const SsmaConfig& config, const Tensor& e,
                      const std::vector<int64_t>& index_set) {
  const int64_t n = e.dim(0);
  const int64_t d = e.dim(1);
  const int64_t m = static_cast<int64_t>(index_set.size());
  const int64_t two_p = 2 * config.heads;

  // z_all[i][j][q]: entmax-normalized per-head scores, concatenated.
  std::vector<std::vector<std::vector<double>>> z_all(
      n, std::vector<std::vector<double>>(m, std::vector<double>(two_p)));
  for (int64_t p = 0; p < config.heads; ++p) {
    const Tensor& w0 =
        params.at("ffn" + std::to_string(p) + ".layer0.weight").value();
    const Tensor& b0 =
        params.at("ffn" + std::to_string(p) + ".layer0.bias").value();
    const Tensor& w1 =
        params.at("ffn" + std::to_string(p) + ".layer1.weight").value();
    const Tensor& b1 =
        params.at("ffn" + std::to_string(p) + ".layer1.bias").value();
    const int64_t ffn = w0.dim(1);

    // y[i][j][c] = FFN_p(concat(E_i, E_I[j]))
    std::vector<std::vector<std::vector<double>>> y(
        n, std::vector<std::vector<double>>(m, std::vector<double>(2)));
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < m; ++j) {
        std::vector<double> e_bar(2 * d);
        for (int64_t c = 0; c < d; ++c) {
          e_bar[c] = e.At({i, c});
          e_bar[d + c] = e.At({index_set[j], c});
        }
        std::vector<double> hidden(ffn, 0.0);
        for (int64_t h = 0; h < ffn; ++h) {
          double acc = b0.At({h});
          for (int64_t c = 0; c < 2 * d; ++c) {
            acc += e_bar[c] * w0.At({c, h});
          }
          hidden[h] = std::max(0.0, acc);
        }
        for (int64_t c = 0; c < 2; ++c) {
          double acc = b1.At({c});
          for (int64_t h = 0; h < ffn; ++h) {
            acc += hidden[h] * w1.At({h, c});
          }
          y[i][j][c] = acc;
        }
      }
    }
    // entmax along the M axis, separately per (row, channel).
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < 2; ++c) {
        std::vector<double> scores(m);
        for (int64_t j = 0; j < m; ++j) scores[j] = y[i][j][c];
        const std::vector<double> probs = EntmaxRef(scores, config.alpha);
        for (int64_t j = 0; j < m; ++j) {
          z_all[i][j][2 * p + c] = probs[j];
        }
      }
    }
  }

  const Tensor& w_a = params.at("w_a").value();  // [2P, 1]
  Tensor a_s = Tensor::Zeros(Shape({n, m}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (int64_t q = 0; q < two_p; ++q) {
        acc += z_all[i][j][q] * w_a.At({q, 0});
      }
      a_s.At({i, j}) = static_cast<float>(acc);
    }
  }
  return a_s;
}

/// Fast graph convolution in double over the dense N x N adjacency:
///   term_0 = X, term_{j+1} = (D+I)^{-1}(A term_j + term_j),
///   out = sum_j term_j W_j + b, with D_ii = sum_k |A[i, k]|.
Tensor GconvForwardRef(const std::vector<Tensor>& weights,
                       const Tensor& bias, const Tensor& a_s,
                       const std::vector<int64_t>& index_set,
                       const Tensor& x) {
  const int64_t b = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t in = x.dim(2);
  const int64_t out_dim = weights[0].dim(1);
  const int64_t m = static_cast<int64_t>(index_set.size());

  // Dense adjacency and inverse degrees.
  std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
  std::vector<double> inv_deg(n);
  for (int64_t i = 0; i < n; ++i) {
    double deg = 0.0;
    for (int64_t j = 0; j < m; ++j) {
      a[i][index_set[j]] += a_s.At({i, j});
      deg += std::abs(static_cast<double>(a_s.At({i, j})));
    }
    inv_deg[i] = 1.0 / (1.0 + deg);
  }

  // term[b][i][c], updated in place per diffusion step.
  std::vector<std::vector<std::vector<double>>> term(
      b, std::vector<std::vector<double>>(n, std::vector<double>(in)));
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < in; ++c) term[bb][i][c] = x.At({bb, i, c});
    }
  }

  std::vector<std::vector<std::vector<double>>> out(
      b, std::vector<std::vector<double>>(n,
                                          std::vector<double>(out_dim, 0.0)));
  for (size_t j = 0; j < weights.size(); ++j) {
    if (j > 0) {
      auto next = term;
      for (int64_t bb = 0; bb < b; ++bb) {
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t c = 0; c < in; ++c) {
            double acc = term[bb][i][c];
            for (int64_t k = 0; k < n; ++k) {
              acc += a[i][k] * term[bb][k][c];
            }
            next[bb][i][c] = inv_deg[i] * acc;
          }
        }
      }
      term = std::move(next);
    }
    for (int64_t bb = 0; bb < b; ++bb) {
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t o = 0; o < out_dim; ++o) {
          double acc = 0.0;
          for (int64_t c = 0; c < in; ++c) {
            acc += term[bb][i][c] * weights[j].At({c, o});
          }
          out[bb][i][o] += acc;
        }
      }
    }
  }

  Tensor result = Tensor::Zeros(Shape({b, n, out_dim}));
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t o = 0; o < out_dim; ++o) {
        result.At({bb, i, o}) =
            static_cast<float>(out[bb][i][o] + bias.At({o}));
      }
    }
  }
  return result;
}

std::vector<Tensor> ConvWeights(const std::map<std::string, ag::Variable>&
                                    params,
                                const std::string& prefix, int64_t steps) {
  std::vector<Tensor> weights;
  for (int64_t j = 0; j < steps; ++j) {
    weights.push_back(params.at(prefix + "w" + std::to_string(j)).value());
  }
  return weights;
}

/// GConv-GRU cell in double, composed from GconvForwardRef.
Tensor GruForwardRef(const std::map<std::string, ag::Variable>& params,
                     int64_t diffusion_steps, const Tensor& a_s,
                     const std::vector<int64_t>& index_set, const Tensor& x,
                     const Tensor& h) {
  const int64_t b = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t in = x.dim(2);
  const int64_t hd = h.dim(2);

  Tensor xh = Tensor::Zeros(Shape({b, n, in + hd}));
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < in; ++c) xh.At({bb, i, c}) = x.At({bb, i, c});
      for (int64_t c = 0; c < hd; ++c) {
        xh.At({bb, i, in + c}) = h.At({bb, i, c});
      }
    }
  }
  Tensor gates =
      GconvForwardRef(ConvWeights(params, "gates.", diffusion_steps),
                      params.at("gates.bias").value(), a_s, index_set, xh);

  Tensor x_rh = Tensor::Zeros(Shape({b, n, in + hd}));
  std::vector<std::vector<std::vector<double>>> r(
      b, std::vector<std::vector<double>>(n, std::vector<double>(hd)));
  std::vector<std::vector<std::vector<double>>> z = r;
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < hd; ++c) {
        r[bb][i][c] =
            1.0 / (1.0 + std::exp(-static_cast<double>(
                             gates.At({bb, i, c}))));
        z[bb][i][c] =
            1.0 / (1.0 + std::exp(-static_cast<double>(
                             gates.At({bb, i, hd + c}))));
      }
      for (int64_t c = 0; c < in; ++c) {
        x_rh.At({bb, i, c}) = x.At({bb, i, c});
      }
      for (int64_t c = 0; c < hd; ++c) {
        x_rh.At({bb, i, in + c}) =
            static_cast<float>(r[bb][i][c] * h.At({bb, i, c}));
      }
    }
  }
  Tensor candidate = GconvForwardRef(
      ConvWeights(params, "candidate.", diffusion_steps),
      params.at("candidate.bias").value(), a_s, index_set, x_rh);

  Tensor out = Tensor::Zeros(Shape({b, n, hd}));
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < hd; ++c) {
        const double cand = std::tanh(candidate.At({bb, i, c}));
        out.At({bb, i, c}) = static_cast<float>(
            z[bb][i][c] * h.At({bb, i, c}) +
            (1.0 - z[bb][i][c]) * cand);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dense autograd graphs from basic ops (the gradient oracle).

/// FastGraphConv as a dense basic-op graph: A_dense = a_s P, diffusion by
/// BatchedMatMul, degree via Sum(Abs(...)). No fused kernels.
ag::Variable DenseConvGraph(const std::vector<ag::Variable>& weights,
                            const ag::Variable& bias,
                            const ag::Variable& a_dense,
                            const ag::Variable& inv_deg,
                            const ag::Variable& x) {
  ag::Variable term = x;
  ag::Variable out = ag::BatchedMatMul(term, weights[0]);
  for (size_t j = 1; j < weights.size(); ++j) {
    term = ag::Mul(inv_deg,
                   ag::Add(ag::BatchedMatMul(a_dense, term), term));
    out = ag::Add(out, ag::BatchedMatMul(term, weights[j]));
  }
  return ag::Add(out, bias);
}

ag::Variable DenseInverseDegree(const ag::Variable& a_dense) {
  return ag::Div(
      ag::Variable(Tensor::Ones(Shape({a_dense.dim(0), 1}))),
      ag::AddScalar(ag::Sum(ag::Abs(a_dense), 1, /*keepdim=*/true), 1.0f));
}

/// GConvGruCell as a dense basic-op graph (unfused blend:
/// z*h + (1-z)*candidate).
ag::Variable DenseGruGraph(const std::map<std::string, ag::Variable>& params,
                           int64_t diffusion_steps,
                           const ag::Variable& a_dense,
                           const ag::Variable& x, const ag::Variable& h) {
  const int64_t hd = h.dim(2);
  std::vector<ag::Variable> gate_w, cand_w;
  for (int64_t j = 0; j < diffusion_steps; ++j) {
    gate_w.push_back(params.at("gates.w" + std::to_string(j)));
    cand_w.push_back(params.at("candidate.w" + std::to_string(j)));
  }
  ag::Variable inv_deg = DenseInverseDegree(a_dense);

  ag::Variable xh = ag::Concat({x, h}, 2);
  ag::Variable gates = DenseConvGraph(gate_w, params.at("gates.bias"),
                                      a_dense, inv_deg, xh);
  ag::Variable r = ag::Sigmoid(ag::Slice(gates, 2, 0, hd));
  ag::Variable z = ag::Sigmoid(ag::Slice(gates, 2, hd, 2 * hd));
  ag::Variable x_rh = ag::Concat({x, ag::Mul(r, h)}, 2);
  ag::Variable candidate =
      ag::Tanh(DenseConvGraph(cand_w, params.at("candidate.bias"), a_dense,
                              inv_deg, x_rh));
  return ag::Add(ag::Mul(z, h),
                 ag::Mul(ag::RSubScalar(z, 1.0f), candidate));
}

/// SSMA as a dense basic-op graph: the gather is MatMul(P, E); the Mlp is
/// spelled out as matmul + bias + relu. Heads run sequentially (no
/// ParallelFor). Entmax is the same mathematical op both pipelines share.
ag::Variable DenseSsmaGraph(const std::map<std::string, ag::Variable>&
                                params,
                            const SsmaConfig& config, const ag::Variable& e,
                            const ag::Variable& selection) {
  const int64_t n = e.dim(0);
  const int64_t d = e.dim(1);
  const int64_t m = selection.dim(0);

  ag::Variable e_rows =
      ag::Expand(ag::Reshape(e, {n, 1, d}), Shape({n, m, d}));
  ag::Variable e_neighbors = ag::Expand(
      ag::Reshape(ag::MatMul(selection, e), {1, m, d}), Shape({n, m, d}));
  ag::Variable e_bar = ag::Concat({e_rows, e_neighbors}, 2);

  std::vector<ag::Variable> heads;
  for (int64_t p = 0; p < config.heads; ++p) {
    const std::string prefix = "ffn" + std::to_string(p) + ".";
    ag::Variable hidden = ag::Relu(
        ag::Add(ag::BatchedMatMul(e_bar, params.at(prefix + "layer0.weight")),
                params.at(prefix + "layer0.bias")));
    ag::Variable y =
        ag::Add(ag::BatchedMatMul(hidden, params.at(prefix + "layer1.weight")),
                params.at(prefix + "layer1.bias"));
    heads.push_back(config.use_entmax ? Entmax(y, config.alpha, /*axis=*/1)
                                      : ag::Softmax(y, /*axis=*/1));
  }
  ag::Variable z_all = ag::Concat(heads, 2);
  return ag::Reshape(ag::BatchedMatMul(z_all, params.at("w_a")), {n, m});
}

/// loss = sum(out * probe) with a fixed random probe, so every output
/// element contributes a distinct weight to the gradient.
ag::Variable ProbeLoss(const ag::Variable& out, uint64_t seed) {
  utils::Rng rng(seed);
  return ag::SumAll(ag::Mul(
      out, ag::Variable(Tensor::Uniform(out.shape(), rng, -1.0f, 1.0f))));
}

// ---------------------------------------------------------------------------
// Forward oracle tests.

TEST(DenseOracleTest, SsmaForwardMatchesDoubleReference) {
  struct Case {
    int64_t n, m, heads;
    float alpha;
    uint64_t seed;
  };
  const Case cases[] = {
      {5, 5, 1, 1.5f, 1},  {13, 9, 2, 2.0f, 2},  {32, 32, 3, 1.3f, 3},
      {7, 3, 2, 1.5f, 4},  {32, 32, 2, 1.5f, 5},
  };
  for (const Case& c : cases) {
    SsmaConfig config;
    config.embedding_dim = 6;
    config.m = c.m;
    config.heads = c.heads;
    config.ffn_hidden = 5;
    config.alpha = c.alpha;
    utils::Rng rng(c.seed);
    SparseSpatialAttention ssma(config, rng);
    const std::vector<int64_t> index_set = MakeIndexSet(c.n, c.m, rng);
    Tensor e = Tensor::Normal(Shape({c.n, config.embedding_dim}), rng);

    ag::NoGradGuard guard;
    Tensor optimized = ssma.Forward(ag::Variable(e), index_set).value();
    Tensor reference =
        SsmaForwardRef(ParamMap(ssma), config, e, index_set);
    EXPECT_LT(MaxAbsDiff(optimized, reference), kTol)
        << "N=" << c.n << " M=" << c.m << " heads=" << c.heads
        << " alpha=" << c.alpha << " seed=" << c.seed;
  }
}

TEST(DenseOracleTest, FastGraphConvForwardMatchesDoubleReference) {
  struct Case {
    int64_t n, m, in, out, steps, batch;
    uint64_t seed;
  };
  const Case cases[] = {
      {5, 5, 3, 4, 1, 1, 11}, {13, 13, 7, 5, 2, 3, 12},
      {32, 32, 4, 6, 3, 2, 13}, {9, 4, 1, 1, 2, 5, 14},
  };
  for (const Case& c : cases) {
    utils::Rng rng(c.seed);
    FastGraphConv conv(c.in, c.out, c.steps, rng);
    const std::vector<int64_t> index_set = MakeIndexSet(c.n, c.m, rng);
    Tensor a_s = Tensor::Normal(Shape({c.n, c.m}), rng);
    Tensor x = Tensor::Normal(Shape({c.batch, c.n, c.in}), rng);

    ag::NoGradGuard guard;
    Tensor optimized =
        conv.Forward(ag::Variable(a_s), index_set, ag::Variable(x)).value();
    Tensor reference =
        GconvForwardRef(ConvWeights(ParamMap(conv), "", c.steps),
                        ParamMap(conv).at("bias").value(), a_s, index_set,
                        x);
    EXPECT_LT(MaxAbsDiff(optimized, reference), kTol)
        << "N=" << c.n << " M=" << c.m << " J=" << c.steps
        << " seed=" << c.seed;
  }
}

TEST(DenseOracleTest, GruCellForwardMatchesDoubleReference) {
  struct Case {
    int64_t n, m, in, hidden, steps, batch;
    uint64_t seed;
  };
  const Case cases[] = {
      {5, 5, 2, 3, 2, 1, 21}, {13, 13, 3, 6, 2, 2, 22},
      {32, 32, 2, 4, 3, 2, 23}, {11, 7, 5, 2, 1, 3, 24},
  };
  for (const Case& c : cases) {
    utils::Rng rng(c.seed);
    GConvGruCell cell(c.in, c.hidden, c.steps, rng);
    const std::vector<int64_t> index_set = MakeIndexSet(c.n, c.m, rng);
    Tensor a_s = Tensor::Normal(Shape({c.n, c.m}), rng);
    Tensor x = Tensor::Normal(Shape({c.batch, c.n, c.in}), rng);
    Tensor h = Tensor::Normal(Shape({c.batch, c.n, c.hidden}), rng);

    ag::NoGradGuard guard;
    Tensor optimized = cell.Forward(ag::Variable(a_s), index_set,
                                    ag::Variable(x), ag::Variable(h))
                           .value();
    Tensor reference = GruForwardRef(ParamMap(cell), c.steps, a_s,
                                     index_set, x, h);
    EXPECT_LT(MaxAbsDiff(optimized, reference), kTol)
        << "N=" << c.n << " M=" << c.m << " J=" << c.steps
        << " seed=" << c.seed;
  }
}

// ---------------------------------------------------------------------------
// Gradient oracle tests. Both graphs share the module's parameter leaves;
// Backward runs on each with ZeroGrad in between, and every gradient
// (parameters AND inputs) must agree.

TEST(DenseOracleTest, FastGraphConvGradientsMatchDenseGraph) {
  struct Case {
    int64_t n, m, in, out, steps, batch;
    uint64_t seed;
  };
  const Case cases[] = {
      {5, 5, 3, 4, 2, 2, 31}, {13, 13, 4, 3, 3, 1, 32},
      {32, 32, 2, 5, 2, 2, 33}, {9, 5, 3, 3, 2, 3, 34},
  };
  for (const Case& c : cases) {
    utils::Rng rng(c.seed);
    FastGraphConv conv(c.in, c.out, c.steps, rng);
    const std::vector<int64_t> index_set = MakeIndexSet(c.n, c.m, rng);
    ag::Variable a_s(Tensor::Normal(Shape({c.n, c.m}), rng),
                     /*requires_grad=*/true);
    ag::Variable x(Tensor::Normal(Shape({c.batch, c.n, c.in}), rng),
                   /*requires_grad=*/true);
    std::map<std::string, ag::Variable> params = ParamMap(conv);

    // Slim pipeline (one fused GraphConv node).
    ProbeLoss(conv.Forward(a_s, index_set, x), c.seed).Backward();
    std::map<std::string, Tensor> slim_grads;
    for (auto& [name, p] : params) {
      slim_grads.emplace(name, p.grad().Clone());
      p.ZeroGrad();
    }
    Tensor slim_a_grad = a_s.grad().Clone();
    Tensor slim_x_grad = x.grad().Clone();
    a_s.ZeroGrad();
    x.ZeroGrad();

    // Dense basic-op pipeline.
    ag::Variable a_dense =
        ag::MatMul(a_s, SelectionMatrix(index_set, c.n));
    std::vector<ag::Variable> weights;
    for (int64_t j = 0; j < c.steps; ++j) {
      weights.push_back(params.at("w" + std::to_string(j)));
    }
    ag::Variable dense_out = DenseConvGraph(
        weights, params.at("bias"), a_dense, DenseInverseDegree(a_dense), x);
    ProbeLoss(dense_out, c.seed).Backward();

    for (auto& [name, p] : params) {
      EXPECT_LT(MaxAbsDiff(p.grad(), slim_grads.at(name)), kTol)
          << "param " << name << " seed=" << c.seed;
      p.ZeroGrad();
    }
    EXPECT_LT(MaxAbsDiff(a_s.grad(), slim_a_grad), kTol)
        << "a_s seed=" << c.seed;
    EXPECT_LT(MaxAbsDiff(x.grad(), slim_x_grad), kTol)
        << "x seed=" << c.seed;
  }
}

TEST(DenseOracleTest, GruCellGradientsMatchDenseGraph) {
  struct Case {
    int64_t n, m, in, hidden, steps, batch;
    uint64_t seed;
  };
  const Case cases[] = {
      {5, 5, 2, 3, 2, 2, 41}, {13, 13, 3, 4, 2, 1, 42},
      {32, 32, 2, 3, 3, 2, 43},
  };
  for (const Case& c : cases) {
    utils::Rng rng(c.seed);
    GConvGruCell cell(c.in, c.hidden, c.steps, rng);
    const std::vector<int64_t> index_set = MakeIndexSet(c.n, c.m, rng);
    ag::Variable a_s(Tensor::Normal(Shape({c.n, c.m}), rng),
                     /*requires_grad=*/true);
    ag::Variable x(Tensor::Normal(Shape({c.batch, c.n, c.in}), rng),
                   /*requires_grad=*/true);
    ag::Variable h(Tensor::Normal(Shape({c.batch, c.n, c.hidden}), rng),
                   /*requires_grad=*/true);
    std::map<std::string, ag::Variable> params = ParamMap(cell);

    ProbeLoss(cell.Forward(a_s, index_set, x, h), c.seed).Backward();
    std::map<std::string, Tensor> slim_grads;
    for (auto& [name, p] : params) {
      slim_grads.emplace(name, p.grad().Clone());
      p.ZeroGrad();
    }
    Tensor slim_a_grad = a_s.grad().Clone();
    Tensor slim_x_grad = x.grad().Clone();
    Tensor slim_h_grad = h.grad().Clone();
    a_s.ZeroGrad();
    x.ZeroGrad();
    h.ZeroGrad();

    ag::Variable a_dense =
        ag::MatMul(a_s, SelectionMatrix(index_set, c.n));
    ProbeLoss(DenseGruGraph(params, c.steps, a_dense, x, h), c.seed)
        .Backward();

    for (auto& [name, p] : params) {
      EXPECT_LT(MaxAbsDiff(p.grad(), slim_grads.at(name)), kTol)
          << "param " << name << " seed=" << c.seed;
      p.ZeroGrad();
    }
    EXPECT_LT(MaxAbsDiff(a_s.grad(), slim_a_grad), kTol)
        << "a_s seed=" << c.seed;
    EXPECT_LT(MaxAbsDiff(x.grad(), slim_x_grad), kTol)
        << "x seed=" << c.seed;
    EXPECT_LT(MaxAbsDiff(h.grad(), slim_h_grad), kTol)
        << "h seed=" << c.seed;
  }
}

TEST(DenseOracleTest, SsmaGradientsMatchDenseGraph) {
  struct Case {
    int64_t n, m, heads;
    float alpha;
    uint64_t seed;
  };
  const Case cases[] = {
      {5, 5, 2, 1.5f, 51}, {13, 9, 1, 2.0f, 52}, {32, 32, 2, 1.5f, 53},
  };
  for (const Case& c : cases) {
    SsmaConfig config;
    config.embedding_dim = 5;
    config.m = c.m;
    config.heads = c.heads;
    config.ffn_hidden = 4;
    config.alpha = c.alpha;
    utils::Rng rng(c.seed);
    SparseSpatialAttention ssma(config, rng);
    const std::vector<int64_t> index_set = MakeIndexSet(c.n, c.m, rng);
    ag::Variable e(Tensor::Normal(Shape({c.n, config.embedding_dim}), rng),
                   /*requires_grad=*/true);
    std::map<std::string, ag::Variable> params = ParamMap(ssma);

    ProbeLoss(ssma.Forward(e, index_set), c.seed).Backward();
    std::map<std::string, Tensor> slim_grads;
    for (auto& [name, p] : params) {
      slim_grads.emplace(name, p.grad().Clone());
      p.ZeroGrad();
    }
    Tensor slim_e_grad = e.grad().Clone();
    e.ZeroGrad();

    ProbeLoss(DenseSsmaGraph(params, config, e,
                             SelectionMatrix(index_set, c.n)),
              c.seed)
        .Backward();

    for (auto& [name, p] : params) {
      EXPECT_LT(MaxAbsDiff(p.grad(), slim_grads.at(name)), kTol)
          << "param " << name << " seed=" << c.seed;
      p.ZeroGrad();
    }
    EXPECT_LT(MaxAbsDiff(e.grad(), slim_e_grad), kTol)
        << "embeddings seed=" << c.seed;
  }
}

}  // namespace
}  // namespace sagdfn::core
