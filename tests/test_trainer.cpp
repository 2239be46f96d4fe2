// Trainer (Algorithm 5) tests: learning actually happens, the phase
// ledger, sampler-kind coverage, reproducibility, clamping.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "gcn/trainer.hpp"
#include "obs/phase.hpp"
#include "obs/telemetry.hpp"
#include "util/timer.hpp"

namespace gsgcn::gcn {
namespace {

data::Dataset easy_dataset(std::uint64_t seed = 11) {
  data::SyntheticParams p;
  p.num_vertices = 800;
  p.num_classes = 4;
  p.feature_dim = 24;
  p.avg_degree = 12.0;
  p.homophily = 20.0;
  p.feature_signal = 1.5;
  p.mode = data::LabelMode::kSingle;
  p.seed = seed;
  return data::make_synthetic(p);
}

TrainerConfig fast_config() {
  TrainerConfig cfg;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.epochs = 6;
  cfg.frontier_size = 40;
  cfg.budget = 160;
  cfg.p_inter = 2;
  cfg.threads = 1;
  cfg.seed = 3;
  return cfg;
}

TEST(Trainer, LearnsEasySingleLabelTask) {
  const data::Dataset ds = easy_dataset();
  Trainer trainer(ds, fast_config());
  const TrainResult result = trainer.train();
  // 4 classes ⇒ chance ≈ 0.25; a working GCN clears 0.6 easily.
  EXPECT_GT(result.final_val_f1, 0.6) << "val F1 " << result.final_val_f1;
  EXPECT_GT(result.final_test_f1, 0.6);
  // Loss decreases across training.
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

TEST(Trainer, LearnsMultiLabelTask) {
  data::SyntheticParams p;
  p.num_vertices = 800;
  p.num_classes = 5;
  p.feature_dim = 24;
  p.avg_degree = 12.0;
  p.mode = data::LabelMode::kMulti;
  p.feature_signal = 1.5;
  p.seed = 13;
  const data::Dataset ds = data::make_synthetic(p);
  TrainerConfig cfg = fast_config();
  cfg.epochs = 8;
  Trainer trainer(ds, cfg);
  const TrainResult result = trainer.train();
  EXPECT_GT(result.final_val_f1, 0.45) << "val F1 " << result.final_val_f1;
}

TEST(Trainer, LedgerPhasesSumToKeptEpochWall) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 2;
  cfg.eval_every_epoch = false;
  Trainer trainer(ds, cfg);
  util::Timer wall;
  const TrainResult result = trainer.train();
  const double wall_seconds = wall.seconds();
  EXPECT_GT(result.train_seconds, 0.0);
  EXPECT_GT(result.sample_seconds, 0.0);
  EXPECT_GE(result.sampler_wait_seconds, 0.0);
  EXPECT_GT(result.iterations, 0);
  // The cold-start fill is absorbed by prefill(), never counted a stall.
  EXPECT_EQ(result.pool_cold_starts, 1);
  // Every op of the iteration is timed, and the Figure-3D columns are
  // read off the same ledger.
  const obs::Ledger& ph = result.phases;
  for (const obs::Op op :
       {obs::Op::kPop, obs::Op::kGather, obs::Op::kSpmm, obs::Op::kGemm,
        obs::Op::kElementwise, obs::Op::kLoss, obs::Op::kUpdate}) {
    EXPECT_GT(ph.op_seconds(op), 0.0) << obs::op_name(op);
  }
  EXPECT_EQ(result.featprop_seconds, ph.op_seconds(obs::Op::kSpmm));
  EXPECT_EQ(result.weight_seconds, ph.op_seconds(obs::Op::kGemm) +
                                       ph.op_seconds(obs::Op::kElementwise));
  // Phases plus the unattributed remainder are the kept-epoch wall time,
  // which compute time and sampler wait partition.
  const double kept_wall = result.train_seconds + result.sampler_wait_seconds;
  EXPECT_NEAR(ph.total_seconds() + result.unattributed_seconds, kept_wall,
              1e-9 * kept_wall);
  EXPECT_GE(result.unattributed_seconds, 0.0);
  EXPECT_LE(kept_wall, wall_seconds);
}

TEST(Trainer, LedgerCountsEachOpOncePerIteration) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.num_layers = 3;
  cfg.epochs = 2;
  cfg.eval_every_epoch = false;
  Trainer trainer(ds, cfg);
  const TrainResult result = trainer.train();
  const auto it = static_cast<std::uint64_t>(result.iterations);
  const std::uint64_t layers = 3;
  const obs::Ledger& ph = result.phases;
  using obs::Dir;
  using obs::Op;
  EXPECT_EQ(ph.calls_at(Op::kPop, Dir::kForward), it);
  EXPECT_EQ(ph.calls_at(Op::kGather, Dir::kForward), it);
  EXPECT_EQ(ph.calls_at(Op::kLoss, Dir::kForward), it);
  EXPECT_EQ(ph.calls_at(Op::kUpdate, Dir::kBackward), it);
  EXPECT_EQ(ph.calls_at(Op::kSpmm, Dir::kForward), layers * it);
  // Layer 0 forms no input gradient, so it runs no backward SpMM.
  EXPECT_EQ(ph.calls_at(Op::kSpmm, Dir::kBackward), (layers - 1) * it);
  // One per layer plus the classifier head.
  EXPECT_EQ(ph.calls_at(Op::kGemm, Dir::kForward), (layers + 1) * it);
  // Head: one; layer 0: weight gradients; other layers: weight + input.
  EXPECT_EQ(ph.calls_at(Op::kGemm, Dir::kBackward), 2 * layers * it);
  EXPECT_EQ(ph.calls_at(Op::kElementwise, Dir::kForward), it);  // bias
  EXPECT_EQ(ph.calls_at(Op::kElementwise, Dir::kBackward), 2 * layers * it);
  // Nothing else: no op is counted under a direction it does not run in.
  EXPECT_EQ(ph.calls_at(Op::kPop, Dir::kBackward), 0u);
  EXPECT_EQ(ph.calls_at(Op::kUpdate, Dir::kForward), 0u);
}

TEST(Trainer, EvaluationLeavesTheLedgerUnchanged) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 1;
  Trainer trainer(ds, cfg);
  (void)trainer.train();
  const obs::Ledger before = obs::thread_ledger();
  (void)trainer.evaluate(ds.val_vertices);
  const obs::Ledger d = obs::thread_ledger() - before;
  EXPECT_EQ(d.total_seconds(), 0.0);
  for (int o = 0; o < obs::kOpCount; ++o) {
    EXPECT_EQ(d.calls[o][0] + d.calls[o][1], 0u) << o;
  }
}

TEST(Trainer, EvaluateDependsOnTheSubsetNotItsAddress) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 2;
  Trainer trainer(ds, cfg);
  (void)trainer.train();
  const std::vector<graph::Vid> val_copy = ds.val_vertices;
  const std::vector<graph::Vid> test_copy = ds.test_vertices;
  EXPECT_EQ(trainer.evaluate(val_copy), trainer.evaluate(ds.val_vertices));
  EXPECT_EQ(trainer.evaluate(test_copy), trainer.evaluate(ds.test_vertices));
  // Interleaving subsets reuses the scratch without leaking rows.
  EXPECT_EQ(trainer.evaluate(ds.val_vertices), trainer.evaluate(val_copy));
}

TEST(Trainer, HistoryTimesMonotone) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 4;
  Trainer trainer(ds, cfg);
  const TrainResult result = trainer.train();
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GT(result.history[i].cumulative_seconds,
              result.history[i - 1].cumulative_seconds);
    EXPECT_EQ(result.history[i].epoch, static_cast<int>(i));
  }
  // Per-epoch and cumulative views agree.
  double sum = 0.0;
  for (const auto& rec : result.history) {
    EXPECT_GT(rec.epoch_seconds, 0.0);
    sum += rec.epoch_seconds;
    EXPECT_NEAR(rec.cumulative_seconds, sum, 1e-12);
  }
  EXPECT_NEAR(result.train_seconds, sum, 1e-12);
}

TEST(Trainer, AsyncSamplingMatchesSyncExactly) {
  // The pool's determinism contract lifts to training: with the same
  // seed the async pipeline consumes the identical subgraph sequence, so
  // losses and final weights match bit-for-bit.
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 3;
  cfg.eval_every_epoch = false;
  Trainer sync_trainer(ds, cfg);
  cfg.async_sampling = true;
  Trainer async_trainer(ds, cfg);
  const TrainResult rs = sync_trainer.train();
  const TrainResult ra = async_trainer.train();
  ASSERT_EQ(rs.history.size(), ra.history.size());
  for (std::size_t i = 0; i < rs.history.size(); ++i) {
    EXPECT_EQ(rs.history[i].train_loss, ra.history[i].train_loss)
        << "epoch " << i;
  }
  EXPECT_EQ(rs.final_val_f1, ra.final_val_f1);
  EXPECT_EQ(rs.final_test_f1, ra.final_test_f1);
}

TEST(Trainer, EpochMetricsScrapeBesideTheAsyncProducer) {
  // Per-epoch metrics records scrape the registry while the async
  // producer keeps writing pool metrics (TSan checks this under the
  // concurrency label); the loss sequence is the one without them.
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 3;
  cfg.eval_every_epoch = false;
  cfg.async_sampling = true;
  Trainer plain(ds, cfg);
  const TrainResult rp = plain.train();
  cfg.metrics_every_epoch = true;
  Trainer scraped(ds, cfg);
  obs::Telemetry& sink = obs::Telemetry::instance();
  const std::string path = ::testing::TempDir() + "gsgcn_epoch_metrics.jsonl";
  ASSERT_TRUE(sink.open(path));
  const TrainResult rm = scraped.train();
  sink.close();
  ASSERT_EQ(rp.history.size(), rm.history.size());
  for (std::size_t i = 0; i < rp.history.size(); ++i) {
    EXPECT_EQ(rp.history[i].train_loss, rm.history[i].train_loss) << i;
  }
  std::ifstream in(path);
  std::string line;
  int metrics_records = 0;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"metrics\"") != std::string::npos) {
      EXPECT_NE(line.find("\"pool.refills\""), std::string::npos);
      ++metrics_records;
    }
  }
  EXPECT_EQ(metrics_records, cfg.epochs);
  std::remove(path.c_str());
}

TEST(Trainer, FeatureStoreIsDatasetKeyedInEveryMode) {
  // Internal and external stores alike are indexed by dataset ids: rows()
  // is |V| of the whole graph, and a gather of dataset ids returns what a
  // store built over ds.features (int8 scales from the training rows)
  // returns, bit for bit.
  const data::Dataset ds = easy_dataset();
  const std::vector<std::uint32_t> ids = {0, 5, 17,
                                          static_cast<std::uint32_t>(
                                              ds.graph.num_vertices() - 1)};
  struct Mode {
    data::FeatureDtype dtype;
    std::size_t cache_mb;
  };
  for (const Mode mode : {Mode{data::FeatureDtype::kF32, 0},
                          Mode{data::FeatureDtype::kF32, 1},
                          Mode{data::FeatureDtype::kF16, 0},
                          Mode{data::FeatureDtype::kI8, 1}}) {
    TrainerConfig cfg = fast_config();
    cfg.feature_dtype = mode.dtype;
    cfg.feature_cache_mb = mode.cache_mb;
    const Trainer trainer(ds, cfg);
    const data::FeatureStore* fs = trainer.feature_store();
    ASSERT_NE(fs, nullptr);
    EXPECT_EQ(fs->rows(), ds.graph.num_vertices());
    EXPECT_EQ(fs->dtype(), mode.dtype);
    data::FeatureStoreOptions fo;
    fo.dtype = mode.dtype;
    const data::FeatureStore ref =
        data::FeatureStore::build(ds.features, fo, {}, ds.train_vertices);
    tensor::Matrix got(ids.size(), ds.feature_dim());
    tensor::Matrix want(ids.size(), ds.feature_dim());
    fs->gather(ids, got);
    ref.gather(ids, want);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(float)))
        << data::feature_dtype_name(mode.dtype) << " cache " << mode.cache_mb;
  }
  const data::FeatureStore ext = data::FeatureStore::view(ds.features);
  const Trainer external(ds, fast_config(), &ext);
  EXPECT_EQ(external.feature_store(), &ext);
}

TEST(Trainer, Fp32PathMatchesExternalViewExactly) {
  // The internal fp32 store is a view of ds.features; training through it
  // must equal training through a caller-supplied view, bit for bit.
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 3;
  cfg.eval_every_epoch = false;
  Trainer internal(ds, cfg);
  const data::FeatureStore view = data::FeatureStore::view(ds.features);
  Trainer external(ds, cfg, &view);
  const TrainResult ri = internal.train();
  const TrainResult re = external.train();
  ASSERT_EQ(ri.history.size(), re.history.size());
  for (std::size_t i = 0; i < ri.history.size(); ++i) {
    EXPECT_EQ(ri.history[i].train_loss, re.history[i].train_loss)
        << "epoch " << i;
  }
  const auto wi = internal.model().snapshot_weights();
  const auto we = external.model().snapshot_weights();
  ASSERT_EQ(wi.size(), we.size());
  for (std::size_t i = 0; i < wi.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(wi[i].data(), we[i].data(),
                             wi[i].size() * sizeof(float)))
        << "tensor " << i;
  }
}

TEST(Trainer, AsyncSamplingRepeatedTrainRestartsProducer) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 1;
  cfg.eval_every_epoch = false;
  cfg.async_sampling = true;
  cfg.pool_capacity = 8;
  Trainer trainer(ds, cfg);
  const TrainResult r1 = trainer.train();
  const TrainResult r2 = trainer.train();  // producer restarted
  EXPECT_GT(r1.iterations, 0);
  EXPECT_GT(r2.iterations, 0);
  // Accounting resets per train(); run 2 may find leftovers already
  // queued, so at most one cold start.
  EXPECT_LE(r2.pool_cold_starts, 1);
}

TEST(Trainer, ClampsOversizedSamplerParams) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.budget = 1 << 20;       // far beyond |V_train|
  cfg.frontier_size = 1 << 19;
  Trainer trainer(ds, cfg);
  EXPECT_LE(trainer.effective_budget(), trainer.train_graph_size());
  EXPECT_LT(trainer.effective_frontier(), trainer.effective_budget());
  // And it still trains.
  cfg.epochs = 1;
  const TrainResult r = trainer.train();
  EXPECT_GT(r.iterations, 0);
}

class TrainerSamplerSweep : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(TrainerSamplerSweep, AllSamplerKindsTrain) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.sampler = GetParam();
  cfg.epochs = 3;
  cfg.eval_every_epoch = false;
  Trainer trainer(ds, cfg);
  const TrainResult result = trainer.train();
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.final_val_f1, 0.3);  // above chance for every sampler
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TrainerSamplerSweep,
    ::testing::Values(SamplerKind::kFrontierDashboard,
                      SamplerKind::kFrontierNaive, SamplerKind::kUniformNode,
                      SamplerKind::kRandomEdge, SamplerKind::kRandomWalk,
                      SamplerKind::kForestFire, SamplerKind::kSnowball),
    [](const ::testing::TestParamInfo<SamplerKind>& info) {
      std::string name = sampler_kind_name(info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Trainer, ReproducibleForSeed) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 2;
  cfg.eval_every_epoch = false;
  Trainer t1(ds, cfg), t2(ds, cfg);
  const TrainResult r1 = t1.train();
  const TrainResult r2 = t2.train();
  EXPECT_EQ(r1.history[0].train_loss, r2.history[0].train_loss);
  EXPECT_EQ(r1.final_val_f1, r2.final_val_f1);
}

TEST(Trainer, DegreeCapTrainsOnSkewedGraph) {
  const data::Dataset ds = data::make_preset("amazon-s", 0.05);
  TrainerConfig cfg = fast_config();
  cfg.degree_cap = 30;  // the paper's Amazon mitigation
  cfg.epochs = 5;
  cfg.eval_every_epoch = false;
  Trainer trainer(ds, cfg);
  const TrainResult result = trainer.train();
  EXPECT_GT(result.iterations, 0);
  // 24-class multi-label at tiny scale won't reach useful F1 in 5 epochs;
  // assert the optimization is progressing instead.
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

TEST(Trainer, EarlyStoppingTriggersOnPlateau) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 40;
  cfg.early_stop_patience = 2;
  Trainer trainer(ds, cfg);
  const TrainResult result = trainer.train();
  // The easy task converges quickly, so 40 epochs must not all run.
  EXPECT_TRUE(result.early_stopped);
  EXPECT_LT(result.history.size(), 40u);
}

TEST(Trainer, LrDecayReducesEffectiveRate) {
  // With aggressive decay the later epochs barely move the weights; the
  // run must still complete and remain deterministic.
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 4;
  cfg.lr_decay = 0.1f;
  cfg.eval_every_epoch = false;
  Trainer t1(ds, cfg), t2(ds, cfg);
  const TrainResult r1 = t1.train();
  const TrainResult r2 = t2.train();
  EXPECT_EQ(r1.final_val_f1, r2.final_val_f1);
}

TEST(Trainer, GradClipKeepsTrainingStable) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.grad_clip = 0.5f;
  cfg.epochs = 4;
  cfg.eval_every_epoch = false;
  Trainer trainer(ds, cfg);
  const TrainResult result = trainer.train();
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

TEST(Trainer, DropoutStillLearns) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.dropout = 0.3f;
  cfg.epochs = 8;
  Trainer trainer(ds, cfg);
  const TrainResult result = trainer.train();
  EXPECT_GT(result.final_val_f1, 0.55);
}

TEST(Trainer, SymmetricAggregatorLearns) {
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.aggregator = propagation::AggregatorKind::kSymmetric;
  cfg.epochs = 8;
  Trainer trainer(ds, cfg);
  const TrainResult result = trainer.train();
  EXPECT_GT(result.final_val_f1, 0.55);
}

TEST(Trainer, RestoreBestKeepsPeakWeights) {
  // Train past convergence with an aggressive LR so later epochs can
  // regress; the restored model's final val F1 must equal the best
  // recorded epoch.
  const data::Dataset ds = easy_dataset();
  TrainerConfig cfg = fast_config();
  cfg.epochs = 10;
  cfg.lr = 0.08f;
  cfg.restore_best = true;
  Trainer trainer(ds, cfg);
  const TrainResult r = trainer.train();
  double best = 0.0;
  for (const auto& rec : r.history) best = std::max(best, rec.val_f1);
  EXPECT_NEAR(r.final_val_f1, best, 1e-9);
}

TEST(Trainer, RejectsInvalidDataset) {
  data::Dataset ds = easy_dataset();
  ds.train_vertices.clear();
  TrainerConfig cfg = fast_config();
  EXPECT_THROW(Trainer(ds, cfg), std::invalid_argument);
}

TEST(Trainer, DeeperModelsTrain) {
  const data::Dataset ds = easy_dataset();
  for (const int layers : {1, 3}) {
    TrainerConfig cfg = fast_config();
    cfg.num_layers = layers;
    cfg.epochs = 2;
    cfg.eval_every_epoch = false;
    Trainer trainer(ds, cfg);
    const TrainResult result = trainer.train();
    EXPECT_GT(result.iterations, 0) << layers << " layers";
  }
}

}  // namespace
}  // namespace gsgcn::gcn
