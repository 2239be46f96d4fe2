// GraphConvLayer tests: shape bookkeeping, hand-checkable forward on a
// tiny graph, and full gradient checks (weights and inputs) against
// central differences, with and without ReLU.

#include <gtest/gtest.h>

#include <cstring>

#include "gcn/layer.hpp"
#include "obs/phase.hpp"
#include "propagation/spmm.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "util/timer.hpp"

namespace gsgcn::gcn {
namespace {

using graph::CsrGraph;
using tensor::Matrix;

TEST(Layer, OutputShape) {
  util::Xoshiro256 rng(1);
  GraphConvLayer layer(8, 5, true, rng);
  EXPECT_EQ(layer.in_dim(), 8u);
  EXPECT_EQ(layer.out_dim(), 5u);
  EXPECT_EQ(layer.output_width(), 10u);
  const CsrGraph g = gsgcn::testing::tiny_graph();
  const Matrix x = Matrix::gaussian(5, 8, 1.0f, rng);
  const Matrix& y = layer.forward(g, x, 1);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 10u);
}

TEST(Layer, RejectsBadInputShape) {
  util::Xoshiro256 rng(2);
  GraphConvLayer layer(8, 5, true, rng);
  const CsrGraph g = gsgcn::testing::tiny_graph();
  const Matrix x(5, 7);  // wrong feature dim
  EXPECT_THROW(layer.forward(g, x, 1), std::invalid_argument);
  const Matrix x2(4, 8);  // wrong vertex count
  EXPECT_THROW(layer.forward(g, x2, 1), std::invalid_argument);
}

TEST(Layer, BackwardBeforeForwardThrows) {
  util::Xoshiro256 rng(3);
  GraphConvLayer layer(4, 3, true, rng);
  const CsrGraph g = gsgcn::testing::tiny_graph();
  const Matrix d(5, 6);
  EXPECT_THROW(layer.backward(g, d, 1), std::logic_error);
}

TEST(Layer, ForwardMatchesManualComposition) {
  // Recompute H_out = relu([X·Ws | (A X)·Wn]) with raw kernels.
  util::Xoshiro256 rng(4);
  GraphConvLayer layer(6, 4, true, rng);
  const CsrGraph g = gsgcn::testing::small_er(40, 150, 5);
  const Matrix x = Matrix::gaussian(40, 6, 1.0f, rng);
  const Matrix& out = layer.forward(g, x, 1);

  Matrix agg(40, 6);
  propagation::aggregate_mean_forward(g, x, agg);
  Matrix self(40, 4), neigh(40, 4), cat(40, 8), expect(40, 8);
  tensor::gemm_nn(x, layer.w_self(), self);
  tensor::gemm_nn(agg, layer.w_neigh(), neigh);
  tensor::concat_cols(self, neigh, cat);
  tensor::relu_forward(cat, expect);
  EXPECT_LT(Matrix::max_abs_diff(out, expect), 1e-5f);
}

// Shared gradcheck harness: scalar loss = <H_out, R> for fixed random R.
struct LayerGradFixture {
  CsrGraph g = gsgcn::testing::small_er(25, 90, 6);
  util::Xoshiro256 rng{7};
  GraphConvLayer layer;
  Matrix x;
  Matrix r;  // fixed projection

  explicit LayerGradFixture(bool relu)
      : layer(5, 3, relu, rng),
        x(Matrix::gaussian(25, 5, 1.0f, rng)),
        r(Matrix::gaussian(25, 6, 1.0f, rng)) {}

  double loss() {
    const Matrix& out = layer.forward(g, x, 1);
    double s = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      s += static_cast<double>(out.data()[i]) * r.data()[i];
    }
    return s;
  }

  void run_backward() {
    (void)loss();
    (void)layer.backward(g, r, 1);
  }
};

TEST(LayerGrad, WSelfNoRelu) {
  LayerGradFixture fx(false);
  fx.run_backward();
  Matrix analytic = fx.layer.grad_w_self();
  gsgcn::testing::check_gradient(fx.layer.w_self(), analytic,
                                 [&] { return fx.loss(); }, 24, 1e-3f, 6e-2);
}

TEST(LayerGrad, WNeighNoRelu) {
  LayerGradFixture fx(false);
  fx.run_backward();
  Matrix analytic = fx.layer.grad_w_neigh();
  gsgcn::testing::check_gradient(fx.layer.w_neigh(), analytic,
                                 [&] { return fx.loss(); }, 24, 1e-3f, 6e-2);
}

TEST(LayerGrad, WSelfWithRelu) {
  LayerGradFixture fx(true);
  fx.run_backward();
  Matrix analytic = fx.layer.grad_w_self();
  gsgcn::testing::check_gradient(fx.layer.w_self(), analytic,
                                 [&] { return fx.loss(); }, 24, 1e-3f, 6e-2);
}

TEST(LayerGrad, WNeighWithRelu) {
  LayerGradFixture fx(true);
  fx.run_backward();
  Matrix analytic = fx.layer.grad_w_neigh();
  gsgcn::testing::check_gradient(fx.layer.w_neigh(), analytic,
                                 [&] { return fx.loss(); }, 24, 1e-3f, 6e-2);
}

TEST(LayerGrad, InputGradient) {
  LayerGradFixture fx(true);
  (void)fx.loss();
  Matrix analytic = fx.layer.backward(fx.g, fx.r, 1);
  gsgcn::testing::check_gradient(fx.x, analytic, [&] { return fx.loss(); },
                                 24, 1e-3f, 6e-2);
}

TEST(LayerGrad, InputGradientNoRelu) {
  LayerGradFixture fx(false);
  (void)fx.loss();
  Matrix analytic = fx.layer.backward(fx.g, fx.r, 1);
  gsgcn::testing::check_gradient(fx.x, analytic, [&] { return fx.loss(); },
                                 24, 1e-3f, 6e-2);
}

class LayerAggregatorSweep
    : public ::testing::TestWithParam<propagation::AggregatorKind> {};

TEST_P(LayerAggregatorSweep, GradientsCheckOut) {
  // Same fixture as LayerGradFixture but with a non-default aggregator.
  // No ReLU: sum aggregation inflates activations, which widens the ReLU
  // kink window beyond what central differences tolerate; the ReLU
  // gradient itself is covered by the mean-aggregator tests above.
  const CsrGraph g = gsgcn::testing::small_er(25, 90, 41);
  util::Xoshiro256 rng(42);
  GraphConvLayer layer(5, 3, /*relu=*/false, rng, GetParam());
  const Matrix x = Matrix::gaussian(25, 5, 1.0f, rng);
  const Matrix r = Matrix::gaussian(25, 6, 1.0f, rng);
  auto loss = [&] {
    const Matrix& out = layer.forward(g, x, 1);
    double s = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      s += static_cast<double>(out.data()[i]) * r.data()[i];
    }
    return s;
  };
  (void)loss();
  (void)layer.backward(g, r, 1);
  const Matrix analytic = layer.grad_w_neigh();
  gsgcn::testing::check_gradient(layer.w_neigh(), analytic, loss, 16, 1e-3f,
                                 6e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LayerAggregatorSweep,
    ::testing::Values(propagation::AggregatorKind::kSum,
                      propagation::AggregatorKind::kSymmetric),
    [](const ::testing::TestParamInfo<propagation::AggregatorKind>& info) {
      return std::string(propagation::aggregator_name(info.param));
    });

TEST(LayerDropout, RejectsBadRate) {
  util::Xoshiro256 rng(43);
  GraphConvLayer layer(4, 3, true, rng);
  EXPECT_THROW(layer.set_dropout(-0.1f), std::invalid_argument);
  EXPECT_THROW(layer.set_dropout(1.0f), std::invalid_argument);
}

TEST(LayerDropout, EvalPathUnaffected) {
  util::Xoshiro256 rng(44);
  GraphConvLayer with(6, 4, true, rng);
  util::Xoshiro256 rng2(44);
  GraphConvLayer without(6, 4, true, rng2);
  with.set_dropout(0.5f);
  const CsrGraph g = gsgcn::testing::small_er(30, 120, 45);
  const Matrix x = Matrix::gaussian(30, 6, 1.0f, rng);
  const Matrix& a = with.forward(g, x, 1, /*training=*/false);
  const Matrix b = a;  // copy before the second layer reuses buffers
  const Matrix& c = without.forward(g, x, 1, false);
  EXPECT_EQ(Matrix::max_abs_diff(b, c), 0.0f);
}

TEST(LayerDropout, TrainingPathZeroesInputs) {
  util::Xoshiro256 rng(46);
  GraphConvLayer layer(6, 4, false, rng);
  layer.set_dropout(0.5f);
  const CsrGraph g = gsgcn::testing::small_er(40, 160, 47);
  const Matrix x = Matrix::gaussian(40, 6, 1.0f, rng);
  const Matrix& train_out = layer.forward(g, x, 1, true);
  const Matrix t = train_out;
  const Matrix& eval_out = layer.forward(g, x, 1, false);
  // With dropout active the outputs must differ from the eval path.
  EXPECT_GT(Matrix::max_abs_diff(t, eval_out), 1e-3f);
}

TEST(LayerDropout, GradientMatchesMaskedForward) {
  // With the mask frozen (same forward reused), backward must still match
  // numerically — the mask is part of the cached forward state.
  util::Xoshiro256 rng(48);
  GraphConvLayer layer(5, 3, false, rng);
  layer.set_dropout(0.3f);
  const CsrGraph g = gsgcn::testing::small_er(20, 70, 49);
  const Matrix x = Matrix::gaussian(20, 5, 1.0f, rng);
  const Matrix r = Matrix::gaussian(20, 6, 1.0f, rng);
  (void)layer.forward(g, x, 1, true);
  const Matrix& dx = layer.backward(g, r, 1);
  // Entries of dx where the mask dropped the input must be zero.
  int zeros = 0;
  for (std::size_t i = 0; i < dx.size(); ++i) zeros += dx.data()[i] == 0.0f;
  EXPECT_GT(zeros, 0);  // ~30% of 100 entries
}

TEST(LayerDropout, DeterministicAcrossThreadCounts) {
  // The dropout mask derives from one checkpointed RNG draw plus per-row
  // counter streams, so training forward/backward must be bit-identical
  // for every thread count — not merely statistically close.
  const CsrGraph g = gsgcn::testing::small_er(50, 200, 50);
  util::Xoshiro256 rng_x(51);
  const Matrix x = Matrix::gaussian(50, 6, 1.0f, rng_x);
  const Matrix r = Matrix::gaussian(50, 8, 1.0f, rng_x);

  auto run = [&](int threads, Matrix& out, Matrix& dx, Matrix& dws) {
    util::Xoshiro256 rng(52);  // identical weights + dropout RNG state
    GraphConvLayer layer(6, 4, true, rng);
    layer.set_dropout(0.4f);
    out = layer.forward(g, x, threads, /*training=*/true);
    dx = layer.backward(g, r, threads);
    dws = layer.grad_w_self();
  };
  Matrix out1, dx1, dws1;
  run(1, out1, dx1, dws1);
  for (const int threads : {2, 4, 8}) {
    Matrix outp, dxp, dwsp;
    run(threads, outp, dxp, dwsp);
    ASSERT_EQ(Matrix::max_abs_diff(out1, outp), 0.0f) << "p=" << threads;
    ASSERT_EQ(Matrix::max_abs_diff(dx1, dxp), 0.0f) << "p=" << threads;
    ASSERT_EQ(Matrix::max_abs_diff(dws1, dwsp), 0.0f) << "p=" << threads;
  }
}

TEST(Layer, NoReluOutputAliasesFusedConcat) {
  // relu_=false must not copy: forward output is the GEMM destination
  // buffer itself, written via the two column-slice views.
  util::Xoshiro256 rng(53);
  GraphConvLayer layer(6, 4, false, rng);
  const CsrGraph g = gsgcn::testing::small_er(30, 120, 54);
  const Matrix x = Matrix::gaussian(30, 6, 1.0f, rng);
  const Matrix& out = layer.forward(g, x, 1);

  Matrix agg(30, 6);
  propagation::aggregate_mean_forward(g, x, agg);
  Matrix self(30, 4), neigh(30, 4), cat(30, 8);
  tensor::gemm_nn(x, layer.w_self(), self);
  tensor::gemm_nn(agg, layer.w_neigh(), neigh);
  tensor::concat_cols(self, neigh, cat);
  // Bit-for-bit: the strided-view writes follow the identical fp order.
  EXPECT_EQ(Matrix::max_abs_diff(out, cat), 0.0f);
}

TEST(Layer, MultithreadedMatchesSerial) {
  util::Xoshiro256 rng(8);
  GraphConvLayer l1(6, 4, true, rng);
  util::Xoshiro256 rng2(8);
  GraphConvLayer l2(6, 4, true, rng2);
  const CsrGraph g = gsgcn::testing::small_er(60, 250, 9);
  const Matrix x = Matrix::gaussian(60, 6, 1.0f, rng);
  const Matrix& y1 = l1.forward(g, x, 1);
  const Matrix& y4 = l2.forward(g, x, 4);
  EXPECT_LT(Matrix::max_abs_diff(y1, y4), 1e-5f);
  const Matrix d = Matrix::gaussian(60, 8, 1.0f, rng);
  const Matrix& dx1 = l1.backward(g, d, 1);
  const Matrix& dx4 = l2.backward(g, d, 4);
  EXPECT_LT(Matrix::max_abs_diff(dx1, dx4), 1e-5f);
  EXPECT_LT(Matrix::max_abs_diff(l1.grad_w_self(), l2.grad_w_self()), 1e-4f);
  EXPECT_LT(Matrix::max_abs_diff(l1.grad_w_neigh(), l2.grad_w_neigh()), 1e-4f);
}

TEST(Layer, BackwardWeightsBitIdenticalToFullBackward) {
  // The first layer of a model skips the input gradient; its weight
  // gradients must not move by a single bit for that. Dropout is on, so
  // the skipped path includes the mask multiply.
  const CsrGraph g = gsgcn::testing::small_er(70, 300, 60);
  util::Xoshiro256 rng_x(61);
  const Matrix x = Matrix::gaussian(70, 9, 1.0f, rng_x);
  const Matrix d = Matrix::gaussian(70, 10, 1.0f, rng_x);
  for (const int threads : {1, 4}) {
    util::Xoshiro256 rng_a(62);
    GraphConvLayer full(9, 5, true, rng_a);
    util::Xoshiro256 rng_b(62);
    GraphConvLayer weights_only(9, 5, true, rng_b);
    full.set_dropout(0.3f);
    weights_only.set_dropout(0.3f);
    (void)full.forward(g, x, threads, /*training=*/true);
    (void)weights_only.forward(g, x, threads, /*training=*/true);
    (void)full.backward(g, d, threads);
    weights_only.backward_weights(d, threads);
    const std::size_t bytes = full.grad_w_self().size() * sizeof(float);
    EXPECT_EQ(0, std::memcmp(full.grad_w_self().data(),
                             weights_only.grad_w_self().data(), bytes))
        << "threads=" << threads;
    EXPECT_EQ(0, std::memcmp(full.grad_w_neigh().data(),
                             weights_only.grad_w_neigh().data(), bytes))
        << "threads=" << threads;
  }
}

TEST(Layer, BackwardWeightsBeforeForwardThrows) {
  util::Xoshiro256 rng(63);
  GraphConvLayer layer(4, 2, true, rng);
  const Matrix d(5, 4);
  EXPECT_THROW(layer.backward_weights(d, 1), std::logic_error);
}

TEST(Layer, LedgerCountsEachOpOnce) {
  util::Xoshiro256 rng(10);
  GraphConvLayer layer(6, 4, true, rng);
  const CsrGraph g = gsgcn::testing::small_er(60, 250, 11);
  const Matrix x = Matrix::gaussian(60, 6, 1.0f, rng);
  const Matrix d_out = Matrix::gaussian(60, 8, 1.0f, rng);
  using obs::Dir;
  using obs::Op;
  const obs::Ledger before = obs::thread_ledger();
  const util::Timer wall;
  (void)layer.forward(g, x, 1);
  (void)layer.backward(g, d_out, 1);
  const double wall_seconds = wall.seconds();
  const obs::Ledger d = obs::thread_ledger() - before;
  EXPECT_EQ(d.calls_at(Op::kSpmm, Dir::kForward), 1u);
  EXPECT_EQ(d.calls_at(Op::kGemm, Dir::kForward), 1u);
  EXPECT_EQ(d.calls_at(Op::kElementwise, Dir::kForward), 0u);  // no dropout
  EXPECT_EQ(d.calls_at(Op::kGemm, Dir::kBackward), 2u);  // weight, input
  EXPECT_EQ(d.calls_at(Op::kSpmm, Dir::kBackward), 1u);
  EXPECT_EQ(d.calls_at(Op::kElementwise, Dir::kBackward), 2u);  // mask, add
  EXPECT_GT(d.op_seconds(Op::kSpmm), 0.0);
  EXPECT_GT(d.op_seconds(Op::kGemm), 0.0);
  // Scopes do not nest, so the ledger never exceeds the wall time.
  EXPECT_LE(d.total_seconds(), wall_seconds);
}

}  // namespace
}  // namespace gsgcn::gcn
