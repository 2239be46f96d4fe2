// Baseline tests: BipartiteBlock kernels (hand values, adjointness,
// weighted mode), GraphSAGE batch construction invariants + neighbor
// explosion, FastGCN importance estimator unbiasedness, that all three
// baseline trainers actually learn, and that they give bit-identical
// results at any thread count with every step op in the phase ledger.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "baselines/block.hpp"
#include "baselines/fullbatch.hpp"
#include "baselines/layer_sampling.hpp"
#include "data/synthetic.hpp"
#include "graph/subgraph.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace gsgcn::baselines {
namespace {

using tensor::Matrix;

data::Dataset easy_dataset(std::uint64_t seed = 21,
                           double feature_signal = 1.5) {
  data::SyntheticParams p;
  p.num_vertices = 700;
  p.num_classes = 4;
  p.feature_dim = 20;
  p.avg_degree = 12.0;
  p.homophily = 20.0;
  p.feature_signal = feature_signal;
  p.mode = data::LabelMode::kSingle;
  p.seed = seed;
  return data::make_synthetic(p);
}

TEST(Block, MeanForwardByHand) {
  // 2 dst; dst0 averages src{0,2}, dst1 has no edges.
  BipartiteBlock block(3, {0, 2, 2}, {0, 2});
  Matrix in(3, 1);
  in(0, 0) = 2.0f;
  in(1, 0) = 100.0f;
  in(2, 0) = 4.0f;
  Matrix out(2, 1);
  block.forward(in, out, 1);
  EXPECT_FLOAT_EQ(out(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 0.0f);
}

TEST(Block, WeightedForwardByHand) {
  BipartiteBlock block(2, {0, 2}, {0, 1}, {0.25f, 0.75f});
  Matrix in(2, 1);
  in(0, 0) = 4.0f;
  in(1, 0) = 8.0f;
  Matrix out(1, 1);
  block.forward(in, out, 1);
  EXPECT_FLOAT_EQ(out(0, 0), 0.25f * 4.0f + 0.75f * 8.0f);
}

TEST(Block, DuplicateIndicesActAsMultiplicity) {
  // GraphSAGE samples with replacement: the same source twice doubles its
  // share of the mean.
  BipartiteBlock block(2, {0, 3}, {0, 0, 1});
  Matrix in(2, 1);
  in(0, 0) = 3.0f;
  in(1, 0) = 9.0f;
  Matrix out(1, 1);
  block.forward(in, out, 1);
  EXPECT_FLOAT_EQ(out(0, 0), (3.0f + 3.0f + 9.0f) / 3.0f);
}

TEST(Block, BackwardIsAdjoint) {
  util::Xoshiro256 rng(1);
  // Random block: 5 src, 4 dst, ~3 edges per dst.
  std::vector<std::int64_t> offsets = {0, 3, 5, 8, 10};
  std::vector<std::uint32_t> indices = {0, 1, 4, 2, 3, 0, 2, 4, 1, 3};
  BipartiteBlock block(5, offsets, indices);
  const Matrix x = Matrix::gaussian(5, 6, 1.0f, rng);
  const Matrix y = Matrix::gaussian(4, 6, 1.0f, rng);
  Matrix ax(4, 6), aty(5, 6);
  block.forward(x, ax, 1);
  block.backward(y, aty, 1);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    lhs += static_cast<double>(ax.data()[i]) * y.data()[i];
  }
  for (std::size_t i = 0; i < aty.size(); ++i) {
    rhs += static_cast<double>(aty.data()[i]) * x.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Block, WeightedBackwardIsAdjoint) {
  util::Xoshiro256 rng(2);
  std::vector<std::int64_t> offsets = {0, 2, 4};
  std::vector<std::uint32_t> indices = {0, 2, 1, 2};
  std::vector<float> weights = {0.5f, 1.5f, 2.0f, 0.1f};
  BipartiteBlock block(3, offsets, indices, weights);
  const Matrix x = Matrix::gaussian(3, 4, 1.0f, rng);
  const Matrix y = Matrix::gaussian(2, 4, 1.0f, rng);
  Matrix ax(2, 4), aty(3, 4);
  block.forward(x, ax, 1);
  block.backward(y, aty, 1);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    lhs += static_cast<double>(ax.data()[i]) * y.data()[i];
  }
  for (std::size_t i = 0; i < aty.size(); ++i) {
    rhs += static_cast<double>(aty.data()[i]) * x.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Block, BackwardMultithreadMatchesSerial) {
  util::Xoshiro256 rng(3);
  std::vector<std::int64_t> offsets = {0, 3, 5, 8, 10};
  std::vector<std::uint32_t> indices = {0, 1, 4, 2, 3, 0, 2, 4, 1, 3};
  BipartiteBlock block(5, offsets, indices);
  const Matrix y = Matrix::gaussian(4, 17, 1.0f, rng);
  Matrix d1(5, 17), d4(5, 17);
  block.backward(y, d1, 1);
  block.backward(y, d4, 4);
  EXPECT_EQ(Matrix::max_abs_diff(d1, d4), 0.0f);
}

TEST(Block, RejectsMalformed) {
  EXPECT_THROW(BipartiteBlock(2, {0, 1}, {5}), std::invalid_argument);
  EXPECT_THROW(BipartiteBlock(2, {1, 2}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(BipartiteBlock(2, {0, 2}, {0, 1}, {1.0f}),
               std::invalid_argument);
}

TEST(Sage, BatchPrefixProperty) {
  const data::Dataset ds = easy_dataset();
  LayerSamplingConfig cfg;
  cfg.num_layers = 2;
  cfg.fanout = 4;
  LayerSamplingTrainer trainer(ds, cfg);
  util::Xoshiro256 rng(5);
  const std::vector<graph::Vid> batch = {0, 1, 2, 3, 4};
  const LayerBatch b = trainer.sample_batch(batch, rng);
  ASSERT_EQ(b.nodes.size(), 3u);
  ASSERT_EQ(b.blocks.size(), 2u);
  EXPECT_EQ(b.nodes[2], batch);
  // Each layer's nodes are a prefix of the previous layer's.
  for (int l = 2; l >= 1; --l) {
    const auto& upper = b.nodes[static_cast<std::size_t>(l)];
    const auto& lower = b.nodes[static_cast<std::size_t>(l) - 1];
    ASSERT_GE(lower.size(), upper.size());
    for (std::size_t i = 0; i < upper.size(); ++i) {
      EXPECT_EQ(lower[i], upper[i]);
    }
  }
  // Block shapes line up with node lists.
  for (int l = 0; l < 2; ++l) {
    EXPECT_EQ(b.blocks[static_cast<std::size_t>(l)].num_src(),
              b.nodes[static_cast<std::size_t>(l)].size());
    EXPECT_EQ(b.blocks[static_cast<std::size_t>(l)].num_dst(),
              b.nodes[static_cast<std::size_t>(l) + 1].size());
  }
}

TEST(Sage, NodeListsAreDeduplicated) {
  const data::Dataset ds = easy_dataset();
  LayerSamplingConfig cfg;
  cfg.num_layers = 2;
  cfg.fanout = 8;
  LayerSamplingTrainer trainer(ds, cfg);
  util::Xoshiro256 rng(6);
  const LayerBatch b = trainer.sample_batch({1, 2, 3, 4, 5, 6, 7, 8}, rng);
  for (const auto& layer : b.nodes) {
    std::set<graph::Vid> s(layer.begin(), layer.end());
    EXPECT_EQ(s.size(), layer.size());
  }
}

TEST(Sage, NeighborExplosionGrowsWithDepth) {
  // The core phenomenon of Section III-B: support size grows ~ fanout^L.
  const data::Dataset ds = easy_dataset();
  util::Xoshiro256 rng(7);
  std::vector<std::size_t> support;
  for (const int layers : {1, 2, 3}) {
    LayerSamplingConfig cfg;
    cfg.num_layers = layers;
    cfg.fanout = 5;
    LayerSamplingTrainer trainer(ds, cfg);
    const LayerBatch b = trainer.sample_batch({0, 1, 2, 3}, rng);
    support.push_back(b.nodes[0].size());
  }
  EXPECT_GT(support[1], 2 * support[0] / 2);  // strictly growing …
  EXPECT_GT(support[2], support[1]);
  EXPECT_GT(support[2], 3 * support[0]);      // … and super-linearly
}

TEST(Sage, TrainStepReducesLossOverIterations) {
  const data::Dataset ds = easy_dataset();
  LayerSamplingConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 128;
  cfg.fanout = 5;
  cfg.seed = 2;
  LayerSamplingTrainer trainer(ds, cfg);
  const gcn::TrainResult r = trainer.train();
  ASSERT_GE(r.history.size(), 2u);
  EXPECT_LT(r.history.back().train_loss, r.history.front().train_loss);
  EXPECT_GT(r.final_val_f1, 0.5);
}

TEST(FastGcn, ImportanceDistributionNormalized) {
  const data::Dataset ds = easy_dataset();
  LayerSamplingConfig cfg;
  cfg.sampler = LayerSampler::kFastGcn;
  LayerSamplingTrainer trainer(ds, cfg);
  double total = 0.0;
  for (const double q : trainer.importance()) {
    EXPECT_GE(q, 0.0);
    total += q;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FastGcn, EstimatorIsUnbiased) {
  // E[block.forward] over samples must equal the exact mean aggregation.
  const data::Dataset ds = easy_dataset(33);
  LayerSamplingConfig cfg;
  cfg.sampler = LayerSampler::kFastGcn;
  cfg.num_layers = 1;
  cfg.layer_samples = 64;
  LayerSamplingTrainer trainer(ds, cfg);

  // Exact mean aggregation on the training graph for the probe vertices.
  graph::Inducer inducer(ds.graph);
  auto sub = inducer.induce(ds.train_vertices, 1);
  const graph::CsrGraph& tg = sub.graph;
  Matrix feats(sub.orig_ids.size(), ds.feature_dim());
  tensor::gather_rows(ds.features, sub.orig_ids, feats);

  const std::vector<graph::Vid> probe = {0, 1, 2, 3, 4, 5, 6, 7};
  Matrix exact(probe.size(), ds.feature_dim());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const auto nbrs = tg.neighbors(probe[i]);
    for (std::size_t j = 0; j < ds.feature_dim(); ++j) {
      double s = 0.0;
      for (const graph::Vid u : nbrs) s += feats(u, j);
      exact(i, j) = nbrs.empty()
                        ? 0.0f
                        : static_cast<float>(s / static_cast<double>(nbrs.size()));
    }
  }

  // Average the sampled estimator over many draws.
  util::Xoshiro256 rng(9);
  Matrix mean_est(probe.size(), ds.feature_dim());
  const int draws = 300;
  for (int t = 0; t < draws; ++t) {
    const LayerBatch b = trainer.sample_batch(probe, rng);
    Matrix in(b.nodes[0].size(), ds.feature_dim());
    tensor::gather_rows(feats, b.nodes[0], in);
    Matrix out(probe.size(), ds.feature_dim());
    b.blocks[0].forward(in, out, 1);
    tensor::add_scaled(mean_est, out, 1.0f);
  }
  tensor::scale_inplace(mean_est, 1.0f / draws);
  // Monte-Carlo tolerance: generous but catches systematic bias.
  EXPECT_LT(Matrix::max_abs_diff(mean_est, exact), 0.12f);
}

TEST(FastGcn, Trains) {
  const data::Dataset ds = easy_dataset();
  LayerSamplingConfig cfg;
  cfg.sampler = LayerSampler::kFastGcn;
  cfg.epochs = 3;
  cfg.batch_size = 128;
  cfg.layer_samples = 192;
  LayerSamplingTrainer trainer(ds, cfg);
  const gcn::TrainResult r = trainer.train();
  EXPECT_LT(r.history.back().train_loss, r.history.front().train_loss);
  EXPECT_GT(r.final_val_f1, 0.4);
}

TEST(FullBatch, Trains) {
  const data::Dataset ds = easy_dataset();
  FullBatchConfig cfg;
  cfg.epochs = 25;
  FullBatchTrainer trainer(ds, cfg);
  const gcn::TrainResult r = trainer.train();
  EXPECT_LT(r.history.back().train_loss, r.history.front().train_loss);
  EXPECT_GT(r.final_val_f1, 0.5);
  EXPECT_EQ(r.iterations, 25);
}

/// GraphSAGE, FastGCN and full-batch at `threads`, at a width where
/// layer 1's GEMMs span more than one 256-wide K block (2 · 300 = 600).
std::vector<gcn::TrainResult> train_baselines(const data::Dataset& ds,
                                              int threads) {
  std::vector<gcn::TrainResult> results;
  for (const LayerSampler sampler :
       {LayerSampler::kGraphSage, LayerSampler::kFastGcn}) {
    LayerSamplingConfig cfg;
    cfg.sampler = sampler;
    cfg.hidden_dim = 300;
    cfg.epochs = 2;
    cfg.batch_size = 128;
    cfg.fanout = 5;
    cfg.layer_samples = 192;
    cfg.threads = threads;
    results.push_back(LayerSamplingTrainer(ds, cfg).train());
  }
  FullBatchConfig cfg;
  cfg.hidden_dim = 300;
  cfg.epochs = 4;
  cfg.threads = threads;
  results.push_back(FullBatchTrainer(ds, cfg).train());
  return results;
}

TEST(Baselines, IdenticalAcrossThreadCounts) {
  // A weak feature signal keeps val F1 below 1, so it discriminates.
  const data::Dataset ds = easy_dataset(21, 0.25);
  const std::vector<gcn::TrainResult> serial = train_baselines(ds, 1);
  const std::vector<gcn::TrainResult> parallel = train_baselines(ds, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t m = 0; m < serial.size(); ++m) {
    const gcn::TrainResult& a = serial[m];
    const gcn::TrainResult& b = parallel[m];
    ASSERT_EQ(a.history.size(), b.history.size()) << "method " << m;
    for (std::size_t e = 0; e < a.history.size(); ++e) {
      EXPECT_EQ(a.history[e].train_loss, b.history[e].train_loss)
          << "method " << m << " epoch " << e;
      EXPECT_EQ(a.history[e].val_f1, b.history[e].val_f1)
          << "method " << m << " epoch " << e;
    }
    EXPECT_EQ(a.final_val_f1, b.final_val_f1) << "method " << m;
    EXPECT_EQ(a.final_test_f1, b.final_test_f1) << "method " << m;
    EXPECT_LT(a.final_val_f1, 1.0) << "method " << m;
    // Every op of the step runs in a phase scope, inside the timed epoch.
    for (const gcn::TrainResult* r : {&a, &b}) {
      EXPECT_GT(r->featprop_seconds, 0.0) << "method " << m;
      EXPECT_GT(r->weight_seconds, 0.0) << "method " << m;
      EXPECT_GT(r->phases.op_seconds(obs::Op::kLoss), 0.0) << "method " << m;
      EXPECT_GT(r->phases.op_seconds(obs::Op::kUpdate), 0.0) << "method " << m;
      EXPECT_LE(r->phases.total_seconds(), r->train_seconds) << "method " << m;
      EXPECT_GE(r->unattributed_seconds, 0.0) << "method " << m;
    }
  }
}

TEST(Baselines, RejectBadConfigs) {
  const data::Dataset ds = easy_dataset();
  LayerSamplingConfig sc;
  sc.fanout = 0;
  EXPECT_THROW(LayerSamplingTrainer(ds, sc), std::invalid_argument);
  LayerSamplingConfig fc;
  fc.sampler = LayerSampler::kFastGcn;
  fc.layer_samples = 0;
  EXPECT_THROW(LayerSamplingTrainer(ds, fc), std::invalid_argument);
}

}  // namespace
}  // namespace gsgcn::baselines
