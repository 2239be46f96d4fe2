#pragma once
// Full-batch GCN baseline (batched GCN of Kipf & Welling, [1] in the
// paper, run at batch size = |V_train|): every iteration does one
// forward/backward over the whole training graph. No sampling, no
// neighbor explosion — but each gradient step costs a full epoch, which
// is the slow-convergence regime Figure 2 demonstrates.

#include "baselines/setup.hpp"

namespace gsgcn::baselines {

struct FullBatchConfig : BaselineConfig {
  FullBatchConfig() { epochs = 50; }  // one weight update per epoch
};

class FullBatchTrainer {
 public:
  FullBatchTrainer(const data::Dataset& dataset, const FullBatchConfig& config);

  gcn::TrainResult train();

 private:
  TrainingSetup setup_;
  tensor::Matrix d_logits_;
};

}  // namespace gsgcn::baselines
