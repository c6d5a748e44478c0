// Scenario: latent-graph discovery. SAGDFN learns its spatial structure
// from data alone — here we train on synthetic traffic whose generator
// graph is known, then inspect (a) which nodes the Significant Neighbors
// Sampling module selected, (b) how sparse the entmax attention is, and
// (c) how well the learned adjacency overlaps the ground-truth network.
//
// Build & run:  ./build/examples/graph_discovery
#include <algorithm>
#include <iostream>
#include <numeric>
#include <vector>

#include "core/sagdfn.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/window_dataset.h"
#include "graph/adjacency.h"
#include "graph/csr.h"
#include "tensor/tensor_ops.h"
#include "utils/string_util.h"
#include "utils/table_printer.h"

int main() {
  using namespace sagdfn;

  data::TrafficOptions traffic;
  traffic.num_nodes = 40;
  traffic.num_days = 6;
  traffic.steps_per_day = 96;
  traffic.radius = 0.25;
  traffic.kernel_sigma = 0.18;
  traffic.spatial_rho = 0.9;
  traffic.noise_std = 1.0;
  traffic.seed = 29;
  graph::SparseSpatialGraph latent;
  data::TimeSeries series = data::GenerateTraffic(traffic, &latent);
  data::ForecastDataset dataset(series, data::WindowSpec{12, 12});

  core::SagdfnConfig config;
  config.num_nodes = dataset.num_nodes();
  config.embedding_dim = 10;
  config.m = 12;
  config.k = 9;
  config.hidden_dim = 16;
  config.heads = 2;
  config.ffn_hidden = 8;
  config.diffusion_steps = 2;
  config.alpha = 2.0f;
  config.history = 12;
  config.horizon = 12;
  core::SagdfnModel model(config);

  core::TrainOptions train;
  train.epochs = 6;
  train.batch_size = 8;
  train.learning_rate = 0.02;
  train.max_train_batches_per_epoch = 25;
  train.max_eval_batches = 6;
  core::Trainer trainer(&model, &dataset, train);
  trainer.Train();
  std::cout << "trained on " << dataset.num_nodes()
            << " sensors whose latent road graph is known to the "
               "generator but hidden from the model\n\n";

  // (a) The selected significant-node set I.
  std::cout << "significant nodes I (|I| = " << config.m << "): ";
  for (int64_t v : model.index_set()) std::cout << v << " ";
  std::cout << "\n\n";

  // (b) Entmax sparsity of the slim adjacency.
  tensor::Tensor slim = model.ComputeSlimAdjacency();
  std::cout << "slim adjacency A_s: " << slim.dim(0) << " x "
            << slim.dim(1) << ", exact-zero fraction "
            << utils::FormatDouble(graph::Sparsity(slim) * 100, 1)
            << "% (alpha-entmax prunes weak links outright)\n\n";

  // (c) Overlap with the ground-truth graph, against a random baseline
  // (uniform weights over all N columns).
  const std::vector<int64_t>& index_set = model.index_set();
  const double overlap =
      graph::TopKOverlapCsr(latent.adjacency, slim, index_set, 4);
  utils::Rng rng(99);
  tensor::Tensor random_adj = tensor::Tensor::Uniform(
      tensor::Shape({config.num_nodes, config.num_nodes}), rng);
  std::vector<int64_t> all_nodes(config.num_nodes);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  const double random_overlap =
      graph::TopKOverlapCsr(latent.adjacency, random_adj, all_nodes, 4);
  std::cout << "top-4 neighbor overlap with the latent graph: "
            << utils::FormatDouble(overlap, 3) << " (random baseline "
            << utils::FormatDouble(random_overlap, 3) << ")\n\n";

  // Show one sensor's strongest learned links vs its true neighbors.
  const int64_t sensor = 3;
  std::vector<int64_t> order(config.m);
  std::iota(order.begin(), order.end(), 0);
  const float* row = slim.data() + sensor * config.m;
  std::partial_sort(order.begin(), order.begin() + 4, order.end(),
                    [row](int64_t a, int64_t b) { return row[a] > row[b]; });
  const graph::CsrMatrix& truth = latent.adjacency;
  auto true_weight = [&truth](int64_t i, int64_t j) {
    for (int64_t e = truth.row_ptr[i]; e < truth.row_ptr[i + 1]; ++e) {
      if (truth.col[e] == j) return truth.val[e];
    }
    return 0.0f;
  };
  utils::TablePrinter table({"rank", "learned neighbor", "weight",
                             "true edge weight"});
  for (int64_t r = 0; r < 4; ++r) {
    const int64_t nb = index_set[order[r]];
    table.AddRow({std::to_string(r + 1), std::to_string(nb),
                  utils::FormatDouble(row[order[r]], 4),
                  utils::FormatDouble(true_weight(sensor, nb), 4)});
  }
  std::cout << "sensor " << sensor << " strongest learned links:\n"
            << table.ToString();
  return 0;
}
