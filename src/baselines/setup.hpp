#pragma once
// The setup and bookkeeping every baseline trainer shares.
//
// Each baseline trains on the dataset's *training graph* (induced on the
// training split, GraphSAGE's inductive setup) with that graph's feature
// and label rows, and keeps its weights in a GcnModel with Adam attached.
// The architecture is therefore identical to the graph-sampling GCN, so
// evaluation is gcn::evaluate_f1, the same full-graph inference
// gcn::Trainer runs.

#include <vector>

#include "gcn/inference.hpp"
#include "gcn/trainer.hpp"  // TrainResult, with its obs::Ledger

namespace gsgcn::baselines {

/// The fields every baseline reads.
struct BaselineConfig {
  std::size_t hidden_dim = 128;
  int num_layers = 2;
  float lr = 0.01f;
  int epochs = 10;
  int threads = 1;
  std::uint64_t seed = 1;
  bool eval_every_epoch = true;
};

struct TrainingSetup {
  /// Validates `dataset`, induces its training graph, gathers that
  /// graph's features and labels, and builds the model with Adam.
  /// `config.threads` ≤ 0 resolves to the OpenMP max, once, for every
  /// later call.
  TrainingSetup(const data::Dataset& dataset, const BaselineConfig& config);

  /// F1-micro of full-graph inference on `subset` (dataset ids).
  double f1(const std::vector<graph::Vid>& subset) {
    return gcn::evaluate_f1(model, ds, subset, eval, cfg.threads);
  }

  /// Appends the next epoch's record to `result`: its mean training loss,
  /// its wall time and training-phase ledger (both taken before this
  /// call's evaluation), and the val F1 when cfg.eval_every_epoch is set.
  void end_epoch(gcn::TrainResult& result, double train_loss, double seconds,
                 const obs::Ledger& phases);

  /// After the last epoch: the ledger's Figure-3D split, the unattributed
  /// remainder of train_seconds, and the final val/test F1.
  void finish(gcn::TrainResult& result);

  const data::Dataset& ds;
  BaselineConfig cfg;  // threads resolved
  graph::CsrGraph train_graph;
  tensor::Matrix train_features;  // rows in train-graph order
  tensor::Matrix train_labels;
  gcn::GcnModel model;
  gcn::Adam opt;
  gcn::EvalScratch eval;
};

}  // namespace gsgcn::baselines
