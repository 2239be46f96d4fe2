#include "baselines/fullbatch.hpp"

#include <stdexcept>

#include "gcn/loss.hpp"
#include "gcn/metrics.hpp"
#include "graph/subgraph.hpp"
#include "obs/phase.hpp"
#include "tensor/ops.hpp"
#include "util/timer.hpp"

namespace gsgcn::baselines {

FullBatchTrainer::FullBatchTrainer(const data::Dataset& dataset,
                                   const FullBatchConfig& config)
    : ds_(dataset), cfg_(config) {
  const std::string err = ds_.validate();
  if (!err.empty()) throw std::invalid_argument("FullBatch: bad dataset: " + err);

  graph::Inducer inducer(ds_.graph);
  auto sub = inducer.induce(ds_.train_vertices, std::max(1, cfg_.threads));
  train_graph_ = std::move(sub.graph);
  train_orig_ = std::move(sub.orig_ids);
  train_features_ = tensor::Matrix(train_orig_.size(), ds_.feature_dim());
  train_labels_ = tensor::Matrix(train_orig_.size(), ds_.num_classes());
  tensor::gather_rows(ds_.features, train_orig_, train_features_,
                      cfg_.threads);
  tensor::gather_rows(ds_.labels, train_orig_, train_labels_, cfg_.threads);

  gcn::ModelConfig mc;
  mc.in_dim = ds_.feature_dim();
  mc.hidden_dim = cfg_.hidden_dim;
  mc.num_classes = ds_.num_classes();
  mc.num_layers = cfg_.num_layers;
  mc.seed = cfg_.seed;
  model_ = std::make_unique<gcn::GcnModel>(mc);
  opt_ = std::make_unique<gcn::Adam>(gcn::AdamConfig{.lr = cfg_.lr});
  model_->attach(*opt_);
}

gcn::TrainResult FullBatchTrainer::train() {
  gcn::TrainResult result;
  double train_time = 0.0;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    util::Timer timer;
    const obs::Ledger ledger_before = obs::thread_ledger();
    const tensor::Matrix& logits =
        model_->forward(train_graph_, train_features_, cfg_.threads);
    const float loss = [&] {
      obs::PhaseScope scope(obs::Op::kLoss);
      gcn::ensure_shape(d_logits_, logits.rows(), logits.cols());
      return gcn::classification_loss(ds_.mode, logits, train_labels_,
                                      d_logits_, cfg_.threads);
    }();
    model_->backward(train_graph_, d_logits_, cfg_.threads);
    {
      obs::PhaseScope scope(obs::Op::kUpdate, obs::Dir::kBackward);
      model_->apply_gradients(*opt_);
    }
    ++result.iterations;
    const double epoch_seconds = timer.seconds();
    // The training step's scopes only: evaluation below runs the model
    // too, outside the training ledger.
    result.phases += obs::thread_ledger() - ledger_before;
    train_time += epoch_seconds;

    gcn::EpochRecord rec;
    rec.epoch = epoch;
    rec.train_loss = loss;
    rec.epoch_seconds = epoch_seconds;
    rec.cumulative_seconds = train_time;
    if (cfg_.eval_every_epoch) rec.val_f1 = evaluate(ds_.val_vertices);
    result.history.push_back(rec);
  }
  result.train_seconds = train_time;
  result.featprop_seconds = result.phases.op_seconds(obs::Op::kSpmm);
  result.weight_seconds = result.phases.op_seconds(obs::Op::kGemm) +
                          result.phases.op_seconds(obs::Op::kElementwise);
  result.unattributed_seconds = train_time - result.phases.total_seconds();
  result.final_val_f1 = evaluate(ds_.val_vertices);
  result.final_test_f1 = evaluate(ds_.test_vertices);
  return result;
}

double FullBatchTrainer::evaluate(const std::vector<graph::Vid>& subset) {
  if (subset.empty()) return 0.0;
  const tensor::Matrix& logits =
      model_->forward(ds_.graph, ds_.features, cfg_.threads);
  gcn::ensure_shape(eval_pred_, logits.rows(), logits.cols());
  gcn::predict(ds_.mode, logits, eval_pred_);
  gcn::ensure_shape(subset_pred_, subset.size(), logits.cols());
  gcn::ensure_shape(subset_truth_, subset.size(), logits.cols());
  tensor::gather_rows(eval_pred_, subset, subset_pred_, cfg_.threads);
  tensor::gather_rows(ds_.labels, subset, subset_truth_, cfg_.threads);
  return gcn::f1_micro(subset_pred_, subset_truth_);
}

}  // namespace gsgcn::baselines
