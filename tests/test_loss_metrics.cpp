// Loss and metric tests: closed-form values, gradient checks against
// central differences, stability at extreme logits, metric edge cases,
// and Adam against a hand-stepped reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "gcn/adam.hpp"
#include "gcn/loss.hpp"
#include "gcn/metrics.hpp"
#include "test_helpers.hpp"

namespace gsgcn::gcn {
namespace {

using tensor::Matrix;

TEST(SigmoidBce, ZeroLogitsGiveLog2) {
  Matrix z(2, 3), y(2, 3), dz(2, 3);
  y(0, 0) = 1.0f;
  const float loss = sigmoid_bce_loss(z, y, dz);
  EXPECT_NEAR(loss, std::log(2.0f), 1e-6);
  // dz = (0.5 - y)/6.
  EXPECT_NEAR(dz(0, 0), -0.5f / 6.0f, 1e-6);
  EXPECT_NEAR(dz(1, 2), 0.5f / 6.0f, 1e-6);
}

TEST(SigmoidBce, StableAtExtremeLogits) {
  Matrix z(1, 2), y(1, 2), dz(1, 2);
  z(0, 0) = 80.0f;   // label 1: loss ≈ 0
  z(0, 1) = -80.0f;  // label 0: loss ≈ 0
  y(0, 0) = 1.0f;
  const float loss = sigmoid_bce_loss(z, y, dz);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-6);
  EXPECT_TRUE(std::isfinite(dz(0, 0)));
}

TEST(SigmoidBce, GradientMatchesNumeric) {
  util::Xoshiro256 rng(1);
  Matrix z = Matrix::gaussian(4, 5, 1.0f, rng);
  Matrix y(4, 5);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y.data()[i] = rng.below(2) ? 1.0f : 0.0f;
  }
  Matrix dz(4, 5);
  sigmoid_bce_loss(z, y, dz);
  Matrix scratch(4, 5);
  // eps large-ish: the loss is smooth (no ReLU) and the float32 loss value
  // itself carries ~1e-7 relative noise that a tiny eps would amplify.
  gsgcn::testing::check_gradient(
      z, dz, [&] { return sigmoid_bce_loss(z, y, scratch); }, 20, 1e-2f, 1e-2,
      1e-5);
}

TEST(SoftmaxCe, UniformLogitsGiveLogC) {
  Matrix z(3, 4), y(3, 4), dz(3, 4);
  for (std::size_t i = 0; i < 3; ++i) y(i, i % 4) = 1.0f;
  const float loss = softmax_ce_loss(z, y, dz);
  EXPECT_NEAR(loss, std::log(4.0f), 1e-6);
}

TEST(SoftmaxCe, StableAtExtremeLogits) {
  Matrix z(1, 3), y(1, 3), dz(1, 3);
  z(0, 0) = 1000.0f;
  z(0, 1) = -1000.0f;
  y(0, 0) = 1.0f;
  const float loss = softmax_ce_loss(z, y, dz);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-5);
}

TEST(SoftmaxCe, GradientMatchesNumeric) {
  util::Xoshiro256 rng(2);
  Matrix z = Matrix::gaussian(5, 6, 1.0f, rng);
  Matrix y(5, 6);
  for (std::size_t i = 0; i < 5; ++i) y(i, rng.below(6)) = 1.0f;
  Matrix dz(5, 6);
  softmax_ce_loss(z, y, dz);
  Matrix scratch(5, 6);
  gsgcn::testing::check_gradient(
      z, dz, [&] { return softmax_ce_loss(z, y, scratch); }, 20, 1e-2f, 1e-2,
      1e-5);
}

TEST(SoftmaxCe, GradientRowsSumToZero) {
  util::Xoshiro256 rng(3);
  Matrix z = Matrix::gaussian(4, 7, 2.0f, rng);
  Matrix y(4, 7);
  for (std::size_t i = 0; i < 4; ++i) y(i, rng.below(7)) = 1.0f;
  Matrix dz(4, 7);
  softmax_ce_loss(z, y, dz);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 7; ++j) s += dz(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, DispatchByMode) {
  Matrix z(2, 2), y(2, 2), dz(2, 2);
  y(0, 0) = y(1, 1) = 1.0f;
  const float bce = classification_loss(data::LabelMode::kMulti, z, y, dz);
  const float ce = classification_loss(data::LabelMode::kSingle, z, y, dz);
  EXPECT_NEAR(bce, std::log(2.0f), 1e-6);
  EXPECT_NEAR(ce, std::log(2.0f), 1e-6);
}

TEST(Loss, EmptyThrows) {
  Matrix z, y, dz;
  EXPECT_THROW(sigmoid_bce_loss(z, y, dz), std::invalid_argument);
}

// ---- Row-blocked parallel losses: the loss and d_logits must be the same
// bits at every thread count, and d_logits the same bits as the plain
// serial per-element formulas below.

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// 200 rows (three 64-row blocks plus a partial one) × 13 classes; logits
/// of both signs including ±0, multi-hot or one-hot labels, and positive
/// row weights.
struct LossInputs {
  Matrix z, y_multi, y_one;
  std::vector<float> w;
  LossInputs() {
    constexpr std::size_t kRows = 200, kCols = 13;
    util::Xoshiro256 rng(31);
    z = Matrix::gaussian(kRows, kCols, 3.0f, rng);
    z(0, 0) = 0.0f;
    z(0, 1) = -0.0f;
    y_multi = Matrix(kRows, kCols);
    y_one = Matrix(kRows, kCols);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t j = 0; j < kCols; ++j) {
        y_multi(i, j) = rng.below(2) ? 1.0f : 0.0f;
      }
      y_one(i, rng.below(kCols)) = 1.0f;
      w.push_back(0.25f + static_cast<float>(rng.below(100)) / 25.0f);
    }
  }
};

/// Serial reference gradients: the per-element formulas, one cell at a
/// time (wi = 1 for the unweighted losses).
Matrix serial_bce_grad(const Matrix& z, const Matrix& y,
                       const std::vector<float>* w) {
  Matrix dz(z.rows(), z.cols());
  const double inv = 1.0 / static_cast<double>(z.size());
  for (std::size_t i = 0; i < z.rows(); ++i) {
    for (std::size_t j = 0; j < z.cols(); ++j) {
      const double zj = z(i, j);
      const double yj = y(i, j);
      const double sig = 1.0 / (1.0 + std::exp(-zj));
      dz(i, j) = w ? static_cast<float>((*w)[i] * (sig - yj) * inv)
                   : static_cast<float>((sig - yj) * inv);
    }
  }
  return dz;
}

Matrix serial_softmax_grad(const Matrix& z, const Matrix& y,
                           const std::vector<float>* w) {
  Matrix dz(z.rows(), z.cols());
  const double inv = 1.0 / static_cast<double>(z.rows());
  for (std::size_t i = 0; i < z.rows(); ++i) {
    double zmax = z(i, 0);
    for (std::size_t j = 1; j < z.cols(); ++j) {
      zmax = std::max(zmax, static_cast<double>(z(i, j)));
    }
    double sum = 0.0;
    for (std::size_t j = 0; j < z.cols(); ++j) sum += std::exp(z(i, j) - zmax);
    const double log_sum = std::log(sum) + zmax;
    for (std::size_t j = 0; j < z.cols(); ++j) {
      const double p = std::exp(z(i, j) - log_sum);
      dz(i, j) = w ? static_cast<float>((*w)[i] * (p - y(i, j)) * inv)
                   : static_cast<float>((p - y(i, j)) * inv);
    }
  }
  return dz;
}

TEST(Loss, BitIdenticalAcrossThreadsAndToSerialFormula) {
  const LossInputs in;
  using LossFn = std::function<float(Matrix&, int)>;
  struct Case {
    const char* name;
    LossFn loss;
    Matrix expect_grad;
  };
  const std::vector<Case> cases = {
      {"bce",
       [&](Matrix& dz, int p) {
         return sigmoid_bce_loss(in.z, in.y_multi, dz, p);
       },
       serial_bce_grad(in.z, in.y_multi, nullptr)},
      {"bce_weighted",
       [&](Matrix& dz, int p) {
         return sigmoid_bce_loss_weighted(in.z, in.y_multi, in.w, dz, p);
       },
       serial_bce_grad(in.z, in.y_multi, &in.w)},
      {"softmax",
       [&](Matrix& dz, int p) {
         return softmax_ce_loss(in.z, in.y_one, dz, p);
       },
       serial_softmax_grad(in.z, in.y_one, nullptr)},
      {"softmax_weighted",
       [&](Matrix& dz, int p) {
         return softmax_ce_loss_weighted(in.z, in.y_one, in.w, dz, p);
       },
       serial_softmax_grad(in.z, in.y_one, &in.w)},
  };
  for (const Case& c : cases) {
    Matrix dz1(in.z.rows(), in.z.cols());
    const float loss1 = c.loss(dz1, 1);
    EXPECT_TRUE(same_bits(dz1, c.expect_grad)) << c.name;
    for (const int threads : {2, 4}) {
      Matrix dz(in.z.rows(), in.z.cols());
      const float loss = c.loss(dz, threads);
      EXPECT_EQ(std::memcmp(&loss, &loss1, sizeof(float)), 0)
          << c.name << " p=" << threads;
      EXPECT_TRUE(same_bits(dz, dz1)) << c.name << " p=" << threads;
    }
  }
}

TEST(Predict, SingleLabelArgmax) {
  Matrix z(2, 3);
  z(0, 1) = 5.0f;
  z(1, 2) = 1.0f;
  Matrix p(2, 3);
  predict(data::LabelMode::kSingle, z, p);
  EXPECT_EQ(p(0, 1), 1.0f);
  EXPECT_EQ(p(0, 0), 0.0f);
  EXPECT_EQ(p(1, 2), 1.0f);
}

TEST(Predict, MultiLabelThreshold) {
  Matrix z(1, 4);
  z(0, 0) = 0.1f;
  z(0, 1) = -0.1f;
  z(0, 2) = 3.0f;
  z(0, 3) = 0.0f;  // sigmoid(0) = 0.5, not > 0.5
  Matrix p(1, 4);
  predict(data::LabelMode::kMulti, z, p);
  EXPECT_EQ(p(0, 0), 1.0f);
  EXPECT_EQ(p(0, 1), 0.0f);
  EXPECT_EQ(p(0, 2), 1.0f);
  EXPECT_EQ(p(0, 3), 0.0f);
}

TEST(Metrics, PerfectPrediction) {
  Matrix y(3, 4);
  y(0, 0) = y(1, 2) = y(2, 3) = 1.0f;
  EXPECT_DOUBLE_EQ(f1_micro(y, y), 1.0);
  EXPECT_DOUBLE_EQ(subset_accuracy(y, y), 1.0);
}

TEST(Metrics, AllWrongIsZero) {
  Matrix p(2, 2), y(2, 2);
  p(0, 0) = p(1, 0) = 1.0f;
  y(0, 1) = y(1, 1) = 1.0f;
  EXPECT_DOUBLE_EQ(f1_micro(p, y), 0.0);
  EXPECT_DOUBLE_EQ(subset_accuracy(p, y), 0.0);
}

TEST(Metrics, F1MicroHandComputed) {
  // tp=1 (cell 0,0), fp=1 (cell 1,1), fn=1 (cell 0,1).
  Matrix p(2, 2), y(2, 2);
  p(0, 0) = 1.0f;
  p(1, 1) = 1.0f;
  y(0, 0) = 1.0f;
  y(0, 1) = 1.0f;
  EXPECT_DOUBLE_EQ(f1_micro(p, y), 2.0 * 1 / (2.0 * 1 + 1 + 1));
}

TEST(Metrics, F1MicroEqualsAccuracyForOneHot) {
  util::Xoshiro256 rng(4);
  const std::size_t n = 50, c = 6;
  Matrix p(n, c), y(n, c);
  int correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto yi = rng.below(c);
    const auto pi = rng.below(c);
    y(i, yi) = 1.0f;
    p(i, pi) = 1.0f;
    correct += (yi == pi);
  }
  EXPECT_NEAR(f1_micro(p, y), static_cast<double>(correct) / n, 1e-12);
}

TEST(Metrics, F1MacroAveragesClasses) {
  // Class 0 perfect, class 1 never predicted → macro = (1 + 0) / 2.
  Matrix p(2, 2), y(2, 2);
  p(0, 0) = 1.0f;
  y(0, 0) = 1.0f;
  y(1, 1) = 1.0f;
  EXPECT_DOUBLE_EQ(f1_macro(p, y), 0.5);
}

TEST(Metrics, ShapeMismatchThrows) {
  Matrix p(2, 2), y(2, 3);
  EXPECT_THROW(f1_micro(p, y), std::invalid_argument);
}

TEST(Report, PerfectPredictionReport) {
  Matrix y(4, 3);
  y(0, 0) = y(1, 1) = y(2, 2) = y(3, 0) = 1.0f;
  const ClassificationReport r = classification_report(y, y);
  ASSERT_EQ(r.per_class.size(), 3u);
  for (const auto& m : r.per_class) {
    EXPECT_DOUBLE_EQ(m.f1, 1.0);
  }
  EXPECT_EQ(r.per_class[0].support, 2);
  EXPECT_EQ(r.per_class[1].support, 1);
  EXPECT_DOUBLE_EQ(r.micro_f1, 1.0);
  EXPECT_DOUBLE_EQ(r.subset_accuracy, 1.0);
}

TEST(Report, HandComputedMetrics) {
  // Class 0: tp=1 fp=1 fn=0 -> P=0.5 R=1 F1=2/3. Class 1: tp=0 fp=0 fn=1.
  Matrix p(2, 2), y(2, 2);
  p(0, 0) = 1.0f;
  p(1, 0) = 1.0f;
  y(0, 0) = 1.0f;
  y(1, 1) = 1.0f;
  const ClassificationReport r = classification_report(p, y);
  EXPECT_DOUBLE_EQ(r.per_class[0].precision, 0.5);
  EXPECT_DOUBLE_EQ(r.per_class[0].recall, 1.0);
  EXPECT_NEAR(r.per_class[0].f1, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.per_class[1].f1, 0.0);
  EXPECT_EQ(r.per_class[1].support, 1);
}

TEST(Report, FormatContainsAggregates) {
  Matrix y(2, 2);
  y(0, 0) = y(1, 1) = 1.0f;
  const std::string text = format_report(classification_report(y, y));
  EXPECT_NE(text.find("micro-F1 1.0000"), std::string::npos);
  EXPECT_NE(text.find("support"), std::string::npos);
}

TEST(Adam, GradClipLimitsStep) {
  // A huge gradient with clipping behaves like the clipped gradient.
  AdamConfig clipped_cfg;
  clipped_cfg.lr = 0.1f;
  clipped_cfg.grad_clip = 1.0f;
  Adam clipped(clipped_cfg);
  const std::size_t slot_c = clipped.add_param(1, 1);
  AdamConfig plain_cfg;
  plain_cfg.lr = 0.1f;
  Adam plain(plain_cfg);
  const std::size_t slot_p = plain.add_param(1, 1);

  Matrix wc(1, 1), wp(1, 1), g_big(1, 1), g_unit(1, 1);
  g_big(0, 0) = 1e6f;
  g_unit(0, 0) = 1.0f;
  clipped.begin_step();
  clipped.update(slot_c, wc, g_big);
  plain.begin_step();
  plain.update(slot_p, wp, g_unit);
  EXPECT_NEAR(wc(0, 0), wp(0, 0), 1e-6);
}

TEST(Adam, GradClipInactiveBelowThreshold) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  cfg.grad_clip = 100.0f;
  Adam a(cfg), b(AdamConfig{.lr = 0.1f});
  const std::size_t sa = a.add_param(2, 2), sb = b.add_param(2, 2);
  util::Xoshiro256 rng(3);
  Matrix wa(2, 2), wb(2, 2);
  const Matrix g = Matrix::gaussian(2, 2, 1.0f, rng);
  a.begin_step();
  a.update(sa, wa, g);
  b.begin_step();
  b.update(sb, wb, g);
  EXPECT_EQ(Matrix::max_abs_diff(wa, wb), 0.0f);
}

TEST(Adam, SetLrTakesEffect) {
  Adam opt(AdamConfig{.lr = 0.1f});
  const std::size_t slot = opt.add_param(1, 1);
  Matrix w(1, 1), g(1, 1);
  g(0, 0) = 1.0f;
  opt.set_lr(0.0f);
  opt.begin_step();
  opt.update(slot, w, g);
  EXPECT_EQ(w(0, 0), 0.0f);  // zero lr: no movement
}

TEST(Adam, SingleStepMatchesHandComputation) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  Adam opt(cfg);
  const std::size_t slot = opt.add_param(1, 1);
  Matrix w(1, 1), g(1, 1);
  w(0, 0) = 1.0f;
  g(0, 0) = 2.0f;
  opt.begin_step();
  opt.update(slot, w, g);
  // t=1: m̂ = g, v̂ = g² ⇒ Δ = lr · g/(|g| + ε) ≈ lr.
  EXPECT_NEAR(w(0, 0), 1.0f - 0.1f, 1e-5);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (w - 3)²: Adam should land near 3.
  Adam opt(AdamConfig{.lr = 0.05f});
  const std::size_t slot = opt.add_param(1, 1);
  Matrix w(1, 1), g(1, 1);
  for (int i = 0; i < 2000; ++i) {
    g(0, 0) = 2.0f * (w(0, 0) - 3.0f);
    opt.begin_step();
    opt.update(slot, w, g);
  }
  EXPECT_NEAR(w(0, 0), 3.0f, 1e-2);
}

TEST(Adam, UpdateBeforeStepThrows) {
  Adam opt;
  const std::size_t slot = opt.add_param(1, 1);
  Matrix w(1, 1), g(1, 1);
  EXPECT_THROW(opt.update(slot, w, g), std::logic_error);
}

TEST(Adam, UnknownSlotThrows) {
  Adam opt;
  Matrix w(1, 1), g(1, 1);
  opt.begin_step();
  EXPECT_THROW(opt.update(3, w, g), std::out_of_range);
}

TEST(Adam, ShapeMismatchThrows) {
  Adam opt;
  const std::size_t slot = opt.add_param(2, 2);
  Matrix w(1, 1), g(1, 1);
  opt.begin_step();
  EXPECT_THROW(opt.update(slot, w, g), std::invalid_argument);
}

TEST(Adam, WeightDecayShrinksWeights) {
  AdamConfig cfg;
  cfg.lr = 0.01f;
  cfg.weight_decay = 0.1f;
  Adam opt(cfg);
  const std::size_t slot = opt.add_param(1, 1);
  Matrix w(1, 1), g(1, 1);  // zero gradient: only decay acts
  w(0, 0) = 5.0f;
  for (int i = 0; i < 100; ++i) {
    opt.begin_step();
    opt.update(slot, w, g);
  }
  EXPECT_LT(w(0, 0), 5.0f);
}

}  // namespace
}  // namespace gsgcn::gcn
