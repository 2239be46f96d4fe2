#include "baselines/setup.hpp"

#include <stdexcept>

#include "graph/subgraph.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace gsgcn::baselines {

namespace {

const data::Dataset& validated(const data::Dataset& ds) {
  const std::string err = ds.validate();
  if (!err.empty()) {
    throw std::invalid_argument("baseline trainer: bad dataset: " + err);
  }
  return ds;
}

BaselineConfig resolved(BaselineConfig cfg) {
  cfg.threads = util::resolve_threads(cfg.threads);
  return cfg;
}

}  // namespace

TrainingSetup::TrainingSetup(const data::Dataset& dataset,
                             const BaselineConfig& config)
    : ds(validated(dataset)),
      cfg(resolved(config)),
      model({.in_dim = ds.feature_dim(),
             .hidden_dim = cfg.hidden_dim,
             .num_classes = ds.num_classes(),
             .num_layers = cfg.num_layers,
             .seed = cfg.seed}),
      opt(gcn::AdamConfig{.lr = cfg.lr}) {
  graph::Inducer inducer(ds.graph);
  graph::Subgraph sub = inducer.induce(ds.train_vertices, cfg.threads);
  train_graph = std::move(sub.graph);
  train_features = tensor::Matrix(sub.orig_ids.size(), ds.feature_dim());
  train_labels = tensor::Matrix(sub.orig_ids.size(), ds.num_classes());
  tensor::gather_rows(ds.features, sub.orig_ids, train_features, cfg.threads);
  tensor::gather_rows(ds.labels, sub.orig_ids, train_labels, cfg.threads);
  model.attach(opt);
}

void TrainingSetup::end_epoch(gcn::TrainResult& result, double train_loss,
                              double seconds, const obs::Ledger& phases) {
  result.phases += phases;
  result.train_seconds += seconds;
  result.history.push_back(
      {.epoch = static_cast<int>(result.history.size()),
       .train_loss = train_loss,
       .val_f1 = cfg.eval_every_epoch ? f1(ds.val_vertices) : 0.0,
       .epoch_seconds = seconds,
       .cumulative_seconds = result.train_seconds});
}

void TrainingSetup::finish(gcn::TrainResult& result) {
  result.featprop_seconds = result.phases.op_seconds(obs::Op::kSpmm);
  result.weight_seconds = result.phases.op_seconds(obs::Op::kGemm) +
                          result.phases.op_seconds(obs::Op::kElementwise);
  result.unattributed_seconds =
      result.train_seconds - result.phases.total_seconds();
  result.final_val_f1 = f1(ds.val_vertices);
  result.final_test_f1 = f1(ds.test_vertices);
}

}  // namespace gsgcn::baselines
