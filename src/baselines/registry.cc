#include "baselines/registry.h"

#include "baselines/classical.h"
#include "baselines/dense_stgnn.h"
#include "baselines/neural_forecaster.h"
#include "baselines/rnn_seq2seq.h"
#include "baselines/temporal_only.h"
#include "graph/correlation.h"
#include "utils/check.h"

namespace sagdfn::baselines {
namespace {

std::unique_ptr<Forecaster> MakeDenseStgnn(const std::string& name,
                                           const ModelSizing& sizing,
                                           GraphSource source,
                                           bool directional,
                                           int64_t diffusion_steps,
                                           bool needs_predefined) {
  return std::make_unique<NeuralForecaster>(
      name, [=](const data::ForecastDataset& dataset) {
        DenseStgnnConfig config;
        config.name = name;
        config.num_nodes = dataset.num_nodes();
        config.history = dataset.spec().history;
        config.horizon = dataset.spec().horizon;
        config.hidden_dim = sizing.hidden;
        config.embedding_dim = sizing.embedding;
        config.diffusion_steps = diffusion_steps;
        config.source = source;
        config.directional = directional;
        config.seed = sizing.seed;
        tensor::Tensor predefined;
        if (needs_predefined) {
          predefined = graph::CorrelationKnnGraph(
              tensor::Slice(dataset.series().values, 0, 0,
                            dataset.TrainEndStep()),
              sizing.corr_knn);
        }
        return std::make_unique<DenseStgnn>(config, predefined);
      });
}

std::unique_ptr<Forecaster> MakeTemporal(const std::string& name,
                                         const ModelSizing& sizing,
                                         TemporalOnlyModel::Kind kind) {
  return std::make_unique<NeuralForecaster>(
      name, [=](const data::ForecastDataset& dataset) {
        const int64_t period = std::min<int64_t>(
            dataset.series().steps_per_day, dataset.spec().history);
        return std::make_unique<TemporalOnlyModel>(
            kind, dataset.spec().history, dataset.spec().horizon,
            4 * sizing.hidden, period, sizing.seed);
      });
}

core::SagdfnConfig BaseSagdfnConfig(const ModelSizing& sizing,
                                    const data::ForecastDataset& dataset) {
  core::SagdfnConfig config;
  config.num_nodes = dataset.num_nodes();
  config.embedding_dim = sizing.sagdfn_embedding;
  config.m = std::min<int64_t>(sizing.sagdfn_m, dataset.num_nodes());
  config.k = std::min<int64_t>(sizing.sagdfn_k, config.m);
  config.hidden_dim = sizing.hidden;
  config.heads = sizing.sagdfn_heads;
  config.ffn_hidden = sizing.sagdfn_ffn_hidden;
  config.diffusion_steps = sizing.diffusion_steps;
  config.alpha = sizing.alpha;
  config.history = dataset.spec().history;
  config.horizon = dataset.spec().horizon;
  config.convergence_iters = sizing.convergence_iters;
  config.seed = sizing.seed;
  return config;
}

}  // namespace

std::vector<std::string> PaperBaselineNames() {
  return {"ARIMA",  "VAR",    "SVR",        "LSTM",
          "DCRNN",  "STGCN",  "GRAPH WaveNet", "GMAN",
          "AGCRN",  "MTGNN",  "ASTGCN",     "STSGCN",
          "GTS",    "STEP",   "D2STGNN(c)"};
}

std::vector<std::string> NonGnnBaselineNames() {
  return {"TimesNet", "FEDformer", "ETSformer"};
}

std::unique_ptr<Forecaster> MakeForecaster(const std::string& name,
                                           const ModelSizing& sizing) {
  if (name == "HistoricalAverage") {
    return std::make_unique<HistoricalAverage>();
  }
  if (name == "ARIMA") return std::make_unique<ArForecaster>();
  if (name == "VAR") return std::make_unique<VarForecaster>();
  if (name == "SVR") return std::make_unique<SvrForecaster>();
  if (name == "LSTM") {
    return std::make_unique<NeuralForecaster>(
        name, [sizing](const data::ForecastDataset& dataset) {
          return std::make_unique<RnnSeq2Seq>(
              RnnSeq2Seq::CellType::kLstm, sizing.hidden,
              dataset.spec().history, dataset.spec().horizon, sizing.seed);
        });
  }
  if (name == "DCRNN") {
    return MakeDenseStgnn(name, sizing, GraphSource::kPredefined, false,
                          sizing.diffusion_steps, true);
  }
  if (name == "STGCN") {
    return MakeDenseStgnn(name, sizing, GraphSource::kPredefined, false, 1,
                          true);
  }
  if (name == "GRAPH WaveNet") {
    return MakeDenseStgnn(name, sizing, GraphSource::kBoth, true,
                          sizing.diffusion_steps, true);
  }
  if (name == "GMAN") {
    return MakeDenseStgnn(name, sizing, GraphSource::kAttention, false,
                          sizing.diffusion_steps, false);
  }
  if (name == "AGCRN") {
    return MakeDenseStgnn(name, sizing, GraphSource::kAdaptive, false,
                          sizing.diffusion_steps, false);
  }
  if (name == "MTGNN") {
    return MakeDenseStgnn(name, sizing, GraphSource::kAdaptive, true,
                          sizing.diffusion_steps, false);
  }
  if (name == "ASTGCN") {
    return MakeDenseStgnn(name, sizing, GraphSource::kAttention, false, 1,
                          false);
  }
  if (name == "STSGCN") {
    return MakeDenseStgnn(name, sizing, GraphSource::kPredefined, false, 3,
                          true);
  }
  if (name == "GTS") {
    return MakeDenseStgnn(name, sizing, GraphSource::kPairwiseFfn, false,
                          sizing.diffusion_steps, false);
  }
  if (name == "STEP") {
    ModelSizing deep = sizing;
    deep.embedding = 2 * sizing.embedding;
    return MakeDenseStgnn(name, deep, GraphSource::kPairwiseFfn, false,
                          sizing.diffusion_steps, false);
  }
  if (name == "D2STGNN(c)") {
    return MakeDenseStgnn(name, sizing, GraphSource::kBoth, false, 3, true);
  }
  if (name == "TimesNet") {
    return MakeTemporal(name, sizing, TemporalOnlyModel::Kind::kTimesNet);
  }
  if (name == "FEDformer") {
    return MakeTemporal(name, sizing, TemporalOnlyModel::Kind::kFedformer);
  }
  if (name == "ETSformer") {
    return MakeTemporal(name, sizing, TemporalOnlyModel::Kind::kEtsformer);
  }
  if (name == "SAGDFN") {
    return MakeSagdfnForecaster(name, sizing,
                                [](core::SagdfnConfig*) {});
  }
  SAGDFN_CHECK(false) << "unknown forecaster: " << name;
  return nullptr;
}

std::unique_ptr<Forecaster> MakeSagdfnForecaster(
    const std::string& display_name, const ModelSizing& sizing,
    const std::function<void(core::SagdfnConfig*)>& tweak) {
  return std::make_unique<NeuralForecaster>(
      display_name, [sizing, tweak](const data::ForecastDataset& dataset) {
        core::SagdfnConfig config = BaseSagdfnConfig(sizing, dataset);
        tweak(&config);
        return std::make_unique<core::SagdfnModel>(config);
      });
}

core::ModelFamily FamilyOf(const std::string& name) {
  if (name == "DCRNN") return core::ModelFamily::kDcrnn;
  if (name == "STGCN") return core::ModelFamily::kStgcn;
  if (name == "GRAPH WaveNet") return core::ModelFamily::kGraphWaveNet;
  if (name == "GMAN") return core::ModelFamily::kGman;
  if (name == "AGCRN") return core::ModelFamily::kAgcrn;
  if (name == "MTGNN") return core::ModelFamily::kMtgnn;
  if (name == "ASTGCN") return core::ModelFamily::kAstgcn;
  if (name == "STSGCN") return core::ModelFamily::kStsgcn;
  if (name == "GTS") return core::ModelFamily::kGts;
  if (name == "STEP") return core::ModelFamily::kStep;
  if (name == "D2STGNN(c)") return core::ModelFamily::kD2stgnn;
  if (name == "SAGDFN") return core::ModelFamily::kSagdfn;
  SAGDFN_CHECK(false) << "no memory-model family for " << name;
  return core::ModelFamily::kSagdfn;
}

bool HasFamily(const std::string& name) {
  static const std::vector<std::string> kWithFamily = {
      "DCRNN",  "STGCN", "GRAPH WaveNet", "GMAN",   "AGCRN",     "MTGNN",
      "ASTGCN", "STSGCN", "GTS",          "STEP",   "D2STGNN(c)", "SAGDFN"};
  for (const auto& n : kWithFamily) {
    if (n == name) return true;
  }
  return false;
}

}  // namespace sagdfn::baselines
