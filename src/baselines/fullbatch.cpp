#include "baselines/fullbatch.hpp"

#include "gcn/loss.hpp"
#include "util/timer.hpp"

namespace gsgcn::baselines {

FullBatchTrainer::FullBatchTrainer(const data::Dataset& dataset,
                                   const FullBatchConfig& config)
    : setup_(dataset, config) {}

gcn::TrainResult FullBatchTrainer::train() {
  gcn::TrainResult result;
  gcn::GcnModel& model = setup_.model;
  const int threads = setup_.cfg.threads;
  for (int epoch = 0; epoch < setup_.cfg.epochs; ++epoch) {
    util::Timer timer;
    const obs::Ledger ledger_before = obs::thread_ledger();
    const tensor::Matrix& logits =
        model.forward(setup_.train_graph, setup_.train_features, threads);
    const float loss = [&] {
      obs::PhaseScope scope(obs::Op::kLoss);
      gcn::ensure_shape(d_logits_, logits.rows(), logits.cols());
      return gcn::classification_loss(setup_.ds.mode, logits,
                                      setup_.train_labels, d_logits_, threads);
    }();
    model.backward(setup_.train_graph, d_logits_, threads);
    {
      obs::PhaseScope scope(obs::Op::kUpdate, obs::Dir::kBackward);
      model.apply_gradients(setup_.opt);
    }
    ++result.iterations;
    setup_.end_epoch(result, loss, timer.seconds(),
                     obs::thread_ledger() - ledger_before);
  }
  setup_.finish(result);
  return result;
}

}  // namespace gsgcn::baselines
