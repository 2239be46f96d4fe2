// GcnModel tests: construction, end-to-end gradient checks through L
// layers + classifier + loss, optimizer integration, parameter counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "gcn/inference.hpp"
#include "gcn/loss.hpp"
#include "gcn/model.hpp"
#include "test_helpers.hpp"

namespace gsgcn::gcn {
namespace {

using graph::CsrGraph;
using tensor::Matrix;

ModelConfig small_config(int layers = 2) {
  ModelConfig mc;
  mc.in_dim = 6;
  mc.hidden_dim = 4;
  mc.num_classes = 3;
  mc.num_layers = layers;
  mc.seed = 5;
  return mc;
}

TEST(Model, RejectsBadConfig) {
  ModelConfig mc = small_config();
  mc.in_dim = 0;
  EXPECT_THROW(GcnModel{mc}, std::invalid_argument);
  mc = small_config();
  mc.num_layers = 0;
  EXPECT_THROW(GcnModel{mc}, std::invalid_argument);
}

TEST(Model, LayerWidthsChain) {
  GcnModel m(small_config(3));
  ASSERT_EQ(m.layers().size(), 3u);
  EXPECT_EQ(m.layers()[0].in_dim(), 6u);
  EXPECT_EQ(m.layers()[1].in_dim(), 8u);   // 2·hidden
  EXPECT_EQ(m.layers()[2].in_dim(), 8u);
  EXPECT_EQ(m.w_cls().rows(), 8u);
  EXPECT_EQ(m.w_cls().cols(), 3u);
}

TEST(Model, NumParameters) {
  GcnModel m(small_config(2));
  // L1: 2·(6·4); L2: 2·(8·4); cls: 8·3 + 3.
  EXPECT_EQ(m.num_parameters(), 2u * 24 + 2u * 32 + 24 + 3);
}

TEST(Model, ForwardShape) {
  GcnModel m(small_config());
  const CsrGraph g = gsgcn::testing::small_er(30, 100, 1);
  util::Xoshiro256 rng(2);
  const Matrix x = Matrix::gaussian(30, 6, 1.0f, rng);
  const Matrix& logits = m.forward(g, x, 1);
  EXPECT_EQ(logits.rows(), 30u);
  EXPECT_EQ(logits.cols(), 3u);
}

TEST(Model, BackwardBeforeForwardThrows) {
  GcnModel m(small_config());
  const CsrGraph g = gsgcn::testing::tiny_graph();
  const Matrix d(5, 3);
  EXPECT_THROW(m.backward(g, d, 1), std::logic_error);
}

// End-to-end gradcheck: loss = softmax CE of the model output.
struct ModelGradFixture {
  CsrGraph g = gsgcn::testing::small_er(20, 70, 3);
  GcnModel model;
  Matrix x;
  Matrix y;
  Matrix dz{20, 3};

  explicit ModelGradFixture(int layers) : model(small_config(layers)) {
    util::Xoshiro256 rng(9);
    x = Matrix::gaussian(20, 6, 1.0f, rng);
    y = Matrix(20, 3);
    for (std::size_t i = 0; i < 20; ++i) y(i, rng.below(3)) = 1.0f;
  }

  double loss() {
    const Matrix& logits = model.forward(g, x, 1);
    Matrix scratch(20, 3);
    return softmax_ce_loss(logits, y, scratch);
  }

  void backward() {
    const Matrix& logits = model.forward(g, x, 1);
    softmax_ce_loss(logits, y, dz);
    model.backward(g, dz, 1);
  }
};

TEST(ModelGrad, ClassifierWeights) {
  ModelGradFixture fx(2);
  fx.backward();
  const Matrix analytic = fx.model.grad_w_cls();
  gsgcn::testing::check_gradient(fx.model.w_cls(), analytic,
                                 [&] { return fx.loss(); }, 16);
}

TEST(ModelGrad, ClassifierBias) {
  ModelGradFixture fx(2);
  fx.backward();
  const Matrix analytic = fx.model.grad_bias_cls();
  gsgcn::testing::check_gradient(fx.model.bias_cls(), analytic,
                                 [&] { return fx.loss(); }, 3);
}

TEST(ModelGrad, FirstLayerWeightsTwoLayers) {
  ModelGradFixture fx(2);
  fx.backward();
  const Matrix analytic = fx.model.layers()[0].grad_w_self();
  gsgcn::testing::check_gradient(fx.model.layers()[0].w_self(), analytic,
                                 [&] { return fx.loss(); }, 16);
}

TEST(ModelGrad, FirstLayerNeighWeightsTwoLayers) {
  ModelGradFixture fx(2);
  fx.backward();
  const Matrix analytic = fx.model.layers()[0].grad_w_neigh();
  gsgcn::testing::check_gradient(fx.model.layers()[0].w_neigh(), analytic,
                                 [&] { return fx.loss(); }, 16);
}

TEST(ModelGrad, DeepThreeLayerChain) {
  ModelGradFixture fx(3);
  fx.backward();
  const Matrix analytic = fx.model.layers()[0].grad_w_self();
  gsgcn::testing::check_gradient(fx.model.layers()[0].w_self(), analytic,
                                 [&] { return fx.loss(); }, 12);
}

TEST(ModelGrad, SingleLayer) {
  ModelGradFixture fx(1);
  fx.backward();
  const Matrix analytic = fx.model.layers()[0].grad_w_neigh();
  gsgcn::testing::check_gradient(fx.model.layers()[0].w_neigh(), analytic,
                                 [&] { return fx.loss(); }, 16);
}

TEST(Model, FirstLayerSkipsInputGradientBitExactly) {
  // GcnModel::backward forms only the weight gradients of layer 0. Replay
  // the same backward through the public pieces, with layer 0's FULL
  // backward, and require every weight gradient to match bit for bit.
  // Dropout is on, so the skipped path includes the mask multiply.
  const CsrGraph g = gsgcn::testing::small_er(40, 160, 12);
  util::Xoshiro256 rng(13);
  const Matrix x = Matrix::gaussian(40, 6, 1.0f, rng);
  Matrix y(40, 3);
  for (std::size_t i = 0; i < 40; ++i) y(i, rng.below(3)) = 1.0f;
  ModelConfig mc = small_config(2);
  mc.dropout = 0.25f;
  for (const int threads : {1, 4}) {
    GcnModel model(mc);
    Matrix dz(40, 3);
    softmax_ce_loss(model.forward(g, x, threads, true), y, dz);
    model.backward(g, dz, threads);

    // Same seed: same weights and the same dropout streams.
    GcnModel replay(mc);
    auto& layers = replay.layers();
    const Matrix& h0 = layers[0].forward(g, x, threads, true);
    const Matrix& h1 = layers[1].forward(g, h0, threads, true);
    Matrix d_hidden(h1.rows(), h1.cols());
    tensor::gemm_nt(dz, replay.w_cls(), d_hidden, 1.0f, 0.0f, threads);
    const Matrix& d1 = layers[1].backward(g, d_hidden, threads);
    (void)layers[0].backward(g, d1, threads);

    for (std::size_t l = 0; l < layers.size(); ++l) {
      auto& a = model.layers()[l];
      auto& b = layers[l];
      const std::size_t bytes = a.grad_w_self().size() * sizeof(float);
      EXPECT_EQ(0, std::memcmp(a.grad_w_self().data(), b.grad_w_self().data(),
                               bytes))
          << "layer " << l << " threads=" << threads;
      EXPECT_EQ(0, std::memcmp(a.grad_w_neigh().data(),
                               b.grad_w_neigh().data(), bytes))
          << "layer " << l << " threads=" << threads;
    }
  }
}

TEST(Model, AdamIntegrationReducesLoss) {
  ModelGradFixture fx(2);
  Adam opt(AdamConfig{.lr = 0.02f});
  fx.model.attach(opt);
  const double initial = fx.loss();
  for (int i = 0; i < 60; ++i) {
    fx.backward();
    fx.model.apply_gradients(opt);
  }
  EXPECT_LT(fx.loss(), 0.5 * initial);
}

TEST(Model, DoubleAttachThrows) {
  GcnModel m(small_config());
  Adam opt;
  m.attach(opt);
  EXPECT_THROW(m.attach(opt), std::logic_error);
}

TEST(Model, ApplyBeforeAttachThrows) {
  GcnModel m(small_config());
  Adam opt;
  EXPECT_THROW(m.apply_gradients(opt), std::logic_error);
}

TEST(Model, SameSeedSameWeights) {
  GcnModel a(small_config()), b(small_config());
  EXPECT_EQ(Matrix::max_abs_diff(a.w_cls(), b.w_cls()), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(a.layers()[0].w_self(),
                                 b.layers()[0].w_self()),
            0.0f);
}

TEST(Model, SaveLoadRoundTrip) {
  GcnModel m(small_config());
  const CsrGraph g = gsgcn::testing::small_er(30, 100, 5);
  util::Xoshiro256 rng(6);
  const Matrix x = Matrix::gaussian(30, 6, 1.0f, rng);
  // Train a few steps so weights are non-initial.
  Adam opt(AdamConfig{.lr = 0.05f});
  m.attach(opt);
  Matrix y(30, 3);
  for (std::size_t i = 0; i < 30; ++i) y(i, i % 3) = 1.0f;
  Matrix dz(30, 3);
  for (int step = 0; step < 5; ++step) {
    const Matrix& logits = m.forward(g, x, 1);
    softmax_ce_loss(logits, y, dz);
    m.backward(g, dz, 1);
    m.apply_gradients(opt);
  }
  const Matrix before = m.forward(g, x, 1);

  const std::string path = ::testing::TempDir() + "gsgcn_model.bin";
  m.save(path);
  GcnModel loaded = GcnModel::load(path);
  const Matrix after = loaded.forward(g, x, 1);
  EXPECT_EQ(Matrix::max_abs_diff(before, after), 0.0f);
  EXPECT_EQ(loaded.num_parameters(), m.num_parameters());
  std::remove(path.c_str());
}

TEST(Model, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "gsgcn_bad_model.bin";
  {
    std::ofstream out(path, std::ios::binary);
    const char junk[32] = {1, 2, 3};
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW(GcnModel::load(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(GcnModel::load("/nonexistent/model.bin"), std::runtime_error);
}

TEST(Model, AggregatorConfigPropagates) {
  ModelConfig mc = small_config();
  mc.aggregator = propagation::AggregatorKind::kSymmetric;
  GcnModel m(mc);
  for (const auto& layer : m.layers()) {
    EXPECT_EQ(layer.aggregator(), propagation::AggregatorKind::kSymmetric);
  }
}

TEST(Model, DropoutConfigPropagates) {
  ModelConfig mc = small_config();
  mc.dropout = 0.4f;
  GcnModel m(mc);
  for (const auto& layer : m.layers()) {
    EXPECT_FLOAT_EQ(layer.dropout(), 0.4f);
  }
}

TEST(Model, TrainingForwardDiffersWithDropout) {
  ModelConfig mc = small_config();
  mc.dropout = 0.5f;
  GcnModel m(mc);
  const CsrGraph g = gsgcn::testing::small_er(30, 100, 7);
  util::Xoshiro256 rng(8);
  const Matrix x = Matrix::gaussian(30, 6, 1.0f, rng);
  const Matrix train_logits = m.forward(g, x, 1, /*training=*/true);
  const Matrix eval_logits = m.forward(g, x, 1, /*training=*/false);
  EXPECT_GT(Matrix::max_abs_diff(train_logits, eval_logits), 1e-4f);
  // Eval is deterministic.
  const Matrix eval_again = m.forward(g, x, 1, false);
  EXPECT_EQ(Matrix::max_abs_diff(eval_logits, eval_again), 0.0f);
}

TEST(Model, SnapshotRestoreRoundTrip) {
  GcnModel m(small_config());
  const CsrGraph g = gsgcn::testing::small_er(20, 70, 9);
  util::Xoshiro256 rng(10);
  const Matrix x = Matrix::gaussian(20, 6, 1.0f, rng);
  const auto snap = m.snapshot_weights();
  const Matrix before = m.forward(g, x, 1);
  // Perturb all weights, then restore.
  for (auto& layer : m.layers()) {
    layer.w_self().fill(0.5f);
    layer.w_neigh().fill(-0.5f);
  }
  m.w_cls().fill(0.1f);
  const Matrix perturbed = m.forward(g, x, 1);
  EXPECT_GT(Matrix::max_abs_diff(before, perturbed), 1e-3f);
  m.restore_weights(snap);
  const Matrix after = m.forward(g, x, 1);
  EXPECT_EQ(Matrix::max_abs_diff(before, after), 0.0f);
}

TEST(Model, RestoreRejectsWrongSize) {
  GcnModel m(small_config());
  std::vector<Matrix> wrong(3);
  EXPECT_THROW(m.restore_weights(wrong), std::invalid_argument);
}

// Every trainer's evaluation runs infer_logits, so it must equal the
// model's eval-mode forward bit for bit, at any thread count.
bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Inference, MatchesModelForward) {
  for (const int threads : {1, 4}) {
    for (const int layers : {1, 2, 3}) {
      GcnModel m(small_config(layers));
      const CsrGraph g = gsgcn::testing::small_er(50, 200, 11);
      util::Xoshiro256 rng(12);
      const Matrix x = Matrix::gaussian(50, 6, 1.0f, rng);
      const Matrix expect = m.forward(g, x, threads);
      InferenceScratch scratch;
      const Matrix& got = infer_logits(m, g, x, scratch, threads);
      EXPECT_TRUE(bit_equal(expect, got))
          << layers << " layers, " << threads << " threads";
    }
  }
}

TEST(Inference, ScratchReusableAcrossGraphs) {
  for (const int threads : {1, 4}) {
    GcnModel m(small_config());
    InferenceScratch scratch;
    util::Xoshiro256 rng(13);
    for (const graph::Vid n : {30u, 60u, 45u}) {
      const CsrGraph g = gsgcn::testing::small_er(n, n * 4, n);
      const Matrix x = Matrix::gaussian(n, 6, 1.0f, rng);
      const Matrix expect = m.forward(g, x, threads);
      const Matrix& got = infer_logits(m, g, x, scratch, threads);
      EXPECT_TRUE(bit_equal(expect, got)) << n << " vertices, " << threads
                                          << " threads";
    }
  }
}

TEST(Inference, IgnoresDropout) {
  ModelConfig mc = small_config();
  mc.dropout = 0.5f;
  GcnModel m(mc);
  const CsrGraph g = gsgcn::testing::small_er(30, 100, 14);
  util::Xoshiro256 rng(15);
  const Matrix x = Matrix::gaussian(30, 6, 1.0f, rng);
  InferenceScratch scratch;
  const Matrix a = infer_logits(m, g, x, scratch, 1);
  const Matrix& b = infer_logits(m, g, x, scratch, 1);
  EXPECT_EQ(Matrix::max_abs_diff(a, b), 0.0f);  // deterministic
}

TEST(Inference, RejectsBadInput) {
  GcnModel m(small_config());
  const CsrGraph g = gsgcn::testing::tiny_graph();
  InferenceScratch scratch;
  const Matrix x(5, 7);  // wrong width
  EXPECT_THROW(infer_logits(m, g, x, scratch, 1), std::invalid_argument);
}

TEST(Model, WorksAcrossDifferentGraphSizes) {
  // The same model must run on per-batch subgraphs of varying size —
  // buffers reshape on the fly (Algorithm 5 pops variable-size G_sub).
  GcnModel m(small_config());
  util::Xoshiro256 rng(4);
  for (const graph::Vid n : {10u, 40u, 25u, 60u}) {
    const CsrGraph g = gsgcn::testing::small_er(n, n * 3, n);
    const Matrix x = Matrix::gaussian(n, 6, 1.0f, rng);
    const Matrix& logits = m.forward(g, x, 1);
    EXPECT_EQ(logits.rows(), n);
    Matrix d(n, 3);
    d.fill(0.1f);
    m.backward(g, d, 1);  // must not crash or misshape
  }
}

}  // namespace
}  // namespace gsgcn::gcn
