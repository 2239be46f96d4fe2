// Feature-propagation tests: optimized kernels vs double-precision
// reference, feature-partitioned (Algorithm 6) and 2-D schemes vs the
// plain kernel, forward/backward adjointness, degree-0 handling.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "graph/partition.hpp"
#include "propagation/feature_partitioned.hpp"
#include "propagation/spmm.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gsgcn::propagation {
namespace {

using graph::CsrGraph;
using graph::Vid;
using tensor::Matrix;

Matrix random_features(std::size_t n, std::size_t f, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return Matrix::gaussian(n, f, 1.0f, rng);
}

TEST(Spmm, TinyGraphByHand) {
  // Path 0-1-2: out[1] = (in[0]+in[2])/2, out[0] = in[1], out[2] = in[1].
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  Matrix in(3, 2);
  in(0, 0) = 2.0f;
  in(1, 0) = 4.0f;
  in(2, 0) = 6.0f;
  Matrix out(3, 2);
  aggregate_mean_forward(g, in, out);
  EXPECT_FLOAT_EQ(out(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(out(2, 0), 4.0f);
}

TEST(Spmm, DegreeZeroRowsAreZero) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}});  // vertex 2 isolated
  Matrix in = random_features(3, 4, 1);
  Matrix out(3, 4);
  out.fill(99.0f);
  aggregate_mean_forward(g, in, out);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(out(2, j), 0.0f);
}

TEST(Spmm, ForwardMatchesReference) {
  const CsrGraph g = gsgcn::testing::small_er(150, 700, 3);
  const Matrix in = random_features(150, 37, 2);
  Matrix out(150, 37), ref(150, 37);
  aggregate_mean_forward(g, in, out, 4);
  reference::aggregate_mean_forward(g, in, ref);
  EXPECT_LT(Matrix::max_abs_diff(out, ref), 1e-4f);
}

TEST(Spmm, BackwardMatchesReference) {
  const CsrGraph g = gsgcn::testing::small_er(150, 700, 4);
  const Matrix d_out = random_features(150, 37, 5);
  Matrix d_in(150, 37), ref(150, 37);
  aggregate_mean_backward(g, d_out, d_in, 4);
  reference::aggregate_mean_backward(g, d_out, ref);
  EXPECT_LT(Matrix::max_abs_diff(d_in, ref), 1e-4f);
}

TEST(Spmm, BackwardIsAdjointOfForward) {
  // <A x, y> == <x, Aᵀ y> for the mean-normalized operator.
  const CsrGraph g = gsgcn::testing::small_er(80, 400, 6);
  const Matrix x = random_features(80, 8, 7);
  const Matrix y = random_features(80, 8, 8);
  Matrix ax(80, 8), aty(80, 8);
  aggregate_mean_forward(g, x, ax);
  aggregate_mean_backward(g, y, aty);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    lhs += static_cast<double>(ax.data()[i]) * y.data()[i];
    rhs += static_cast<double>(x.data()[i]) * aty.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Spmm, AliasingRejected) {
  const CsrGraph g = gsgcn::testing::tiny_graph();
  Matrix x(5, 2);
  EXPECT_THROW(aggregate_mean_forward(g, x, x), std::invalid_argument);
}

TEST(Spmm, ShapeMismatchRejected) {
  const CsrGraph g = gsgcn::testing::tiny_graph();
  Matrix in(5, 2), out(4, 2);
  EXPECT_THROW(aggregate_mean_forward(g, in, out), std::invalid_argument);
}

// ---- feature-partitioned (Algorithm 6) ----

class FeaturePartitionSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (f, force_q)

TEST_P(FeaturePartitionSweep, ForwardMatchesPlainKernel) {
  const auto [f, force_q] = GetParam();
  const CsrGraph g = gsgcn::testing::small_er(120, 600, 9);
  const Matrix in = random_features(120, static_cast<std::size_t>(f), 10);
  Matrix out(120, static_cast<std::size_t>(f));
  Matrix ref(120, static_cast<std::size_t>(f));
  FeaturePartitionOptions opts;
  opts.threads = 2;
  opts.force_q = force_q;
  const int q = propagate_feature_partitioned(g, in, out, opts);
  EXPECT_GE(q, 1);
  EXPECT_LE(q, f);
  aggregate_mean_forward(g, in, ref);
  EXPECT_LT(Matrix::max_abs_diff(out, ref), 1e-4f);
}

TEST_P(FeaturePartitionSweep, BackwardMatchesPlainKernel) {
  const auto [f, force_q] = GetParam();
  const CsrGraph g = gsgcn::testing::small_er(120, 600, 11);
  const Matrix d_out = random_features(120, static_cast<std::size_t>(f), 12);
  Matrix d_in(120, static_cast<std::size_t>(f));
  Matrix ref(120, static_cast<std::size_t>(f));
  FeaturePartitionOptions opts;
  opts.threads = 2;
  opts.force_q = force_q;
  propagate_feature_partitioned_backward(g, d_out, d_in, opts);
  aggregate_mean_backward(g, d_out, ref);
  EXPECT_LT(Matrix::max_abs_diff(d_in, ref), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Q, FeaturePartitionSweep,
    ::testing::Values(std::tuple{1, 0}, std::tuple{7, 0}, std::tuple{7, 3},
                      std::tuple{32, 0}, std::tuple{32, 32},
                      std::tuple{33, 5}, std::tuple{64, 16}));

TEST(FeaturePartitioned, QNeverExceedsFeatureCount) {
  const CsrGraph g = gsgcn::testing::small_er(100, 500, 13);
  const Matrix in = random_features(100, 3, 14);
  Matrix out(100, 3);
  FeaturePartitionOptions opts;
  opts.threads = 8;  // C > f: Q must clamp to f
  const int q = propagate_feature_partitioned(g, in, out, opts);
  EXPECT_LE(q, 3);
}

TEST(FeaturePartitioned, ZeroColumnsWithForcedQ) {
  // Regression: force_q > 0 with f = 0 used to clamp to q = 0, violating
  // the q >= 1 slice contract.
  const CsrGraph g = gsgcn::testing::small_er(40, 160, 21);
  const Matrix in(40, 0);
  Matrix out(40, 0);
  FeaturePartitionOptions opts;
  opts.force_q = 4;
  EXPECT_EQ(propagate_feature_partitioned(g, in, out, opts), 1);
  EXPECT_EQ(propagate_feature_partitioned_backward(g, in, out, opts), 1);
}

TEST(FeaturePartitioned, ZeroColumnsAnalyticQ) {
  const CsrGraph g = gsgcn::testing::small_er(40, 160, 22);
  const Matrix in(40, 0);
  Matrix out(40, 0);
  EXPECT_EQ(propagate_feature_partitioned(g, in, out, {}), 1);
  EXPECT_EQ(propagate_feature_partitioned_backward(g, in, out, {}), 1);
}

TEST(FeaturePartitioned, DefaultQIsAPureFunctionOfShape) {
  // Q is analytic: repeated calls on one shape return the same Q in both
  // directions, with no timing in the loop: one slice per processor, none
  // narrower than 32 features.
  const CsrGraph g = gsgcn::testing::small_er(300, 1500, 23);
  const Matrix in = random_features(300, 48, 24);
  Matrix out(300, 48);
  FeaturePartitionOptions opts;
  opts.threads = 3;
  const int expect = choose_parallel_partitions(48, 3);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(propagate_feature_partitioned(g, in, out, opts), expect);
    EXPECT_EQ(propagate_feature_partitioned_backward(g, in, out, opts),
              expect);
  }
}

TEST(FeaturePartitioned, TinyCacheForcesMoreSlices) {
  const CsrGraph g = gsgcn::testing::small_er(200, 1000, 15);
  const Matrix in = random_features(200, 64, 16);
  Matrix out(200, 64);
  FeaturePartitionOptions small_cache;
  small_cache.threads = 2;
  small_cache.cache_bytes = 4 * 1024;  // 200*64*4B = 50KB ≫ 4KB
  const int q_small = propagate_feature_partitioned(g, in, out, small_cache);
  FeaturePartitionOptions big_cache;
  big_cache.threads = 2;
  big_cache.cache_bytes = 16 * 1024 * 1024;
  const int q_big = propagate_feature_partitioned(g, in, out, big_cache);
  EXPECT_GT(q_small, q_big);
}

// ---- 2-D partitioned scheme ----

class Propagate2dSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(Propagate2dSweep, MatchesPlainKernel) {
  const auto [parts, q] = GetParam();
  const CsrGraph g = gsgcn::testing::small_er(120, 600, 17);
  const Matrix in = random_features(120, 24, 18);
  Matrix out(120, 24), ref(120, 24);
  const graph::Partition p = graph::partition_range(120, parts);
  propagate_2d(g, p, q, AggregatorKind::kMean, in, out, 2);
  aggregate_mean_forward(g, in, ref);
  EXPECT_LT(Matrix::max_abs_diff(out, ref), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(PQ, Propagate2dSweep,
                         ::testing::Values(std::tuple{1u, 1}, std::tuple{2u, 3},
                                           std::tuple{4u, 2}, std::tuple{8u, 1},
                                           std::tuple{3u, 8}));

// ---- aggregator variants ----

class AggregatorSweep : public ::testing::TestWithParam<AggregatorKind> {};

TEST_P(AggregatorSweep, ForwardMatchesReference) {
  const AggregatorKind kind = GetParam();
  const CsrGraph g = gsgcn::testing::small_er(120, 600, 31);
  const Matrix in = random_features(120, 19, 32);
  Matrix out(120, 19), ref(120, 19);
  aggregate_forward(g, kind, in, out, 2);
  reference::aggregate_forward(g, kind, in, ref);
  EXPECT_LT(Matrix::max_abs_diff(out, ref), 1e-4f);
}

TEST_P(AggregatorSweep, BackwardIsAdjointOfForward) {
  const CsrGraph g = gsgcn::testing::small_er(90, 400, 33);
  const Matrix x = random_features(90, 8, 34);
  const Matrix y = random_features(90, 8, 35);
  Matrix ax(90, 8), aty(90, 8);
  aggregate_forward(g, GetParam(), x, ax);
  aggregate_backward(g, GetParam(), y, aty);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    lhs += static_cast<double>(ax.data()[i]) * y.data()[i];
    rhs += static_cast<double>(x.data()[i]) * aty.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST_P(AggregatorSweep, PartitionedMatchesPlain) {
  const CsrGraph g = gsgcn::testing::small_er(120, 600, 36);
  const Matrix in = random_features(120, 24, 37);
  Matrix out(120, 24), ref(120, 24);
  FeaturePartitionOptions opts;
  opts.threads = 2;
  opts.force_q = 5;
  opts.aggregator = GetParam();
  propagate_feature_partitioned(g, in, out, opts);
  aggregate_forward(g, GetParam(), in, ref);
  EXPECT_LT(Matrix::max_abs_diff(out, ref), 1e-4f);
}

TEST_P(AggregatorSweep, PartitionedBackwardMatchesPlain) {
  const CsrGraph g = gsgcn::testing::small_er(120, 600, 38);
  const Matrix d_out = random_features(120, 24, 39);
  Matrix d_in(120, 24), ref(120, 24);
  FeaturePartitionOptions opts;
  opts.threads = 2;
  opts.force_q = 7;
  opts.aggregator = GetParam();
  propagate_feature_partitioned_backward(g, d_out, d_in, opts);
  aggregate_backward(g, GetParam(), d_out, ref);
  EXPECT_LT(Matrix::max_abs_diff(d_in, ref), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AggregatorSweep,
    ::testing::Values(AggregatorKind::kMean, AggregatorKind::kSum,
                      AggregatorKind::kSymmetric),
    [](const ::testing::TestParamInfo<AggregatorKind>& info) {
      return std::string(aggregator_name(info.param));
    });

TEST_P(AggregatorSweep, EdgeCentricMatchesGather) {
  const CsrGraph g = gsgcn::testing::small_er(120, 600, 40);
  const Matrix in = random_features(120, 21, 41);
  Matrix gather_out(120, 21), scatter_out(120, 21);
  aggregate_forward(g, GetParam(), in, gather_out, 2);
  aggregate_forward_edge_centric(g, GetParam(), in, scatter_out, 2);
  EXPECT_LT(Matrix::max_abs_diff(gather_out, scatter_out), 1e-4f);
}

TEST(EdgeCentric, SingleThreadAlsoCorrect) {
  const CsrGraph g = gsgcn::testing::tiny_graph();
  Matrix in(5, 2);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in.data()[i] = static_cast<float>(i);
  }
  Matrix a(5, 2), b(5, 2);
  aggregate_mean_forward(g, in, a, 1);
  aggregate_forward_edge_centric(g, AggregatorKind::kMean, in, b, 1);
  EXPECT_LT(Matrix::max_abs_diff(a, b), 1e-5f);
}

TEST(Aggregator, SumOnTinyGraphByHand) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  Matrix in(3, 1);
  in(0, 0) = 2.0f;
  in(1, 0) = 4.0f;
  in(2, 0) = 6.0f;
  Matrix out(3, 1);
  aggregate_forward(g, AggregatorKind::kSum, in, out);
  EXPECT_FLOAT_EQ(out(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 8.0f);
  EXPECT_FLOAT_EQ(out(2, 0), 4.0f);
}

TEST(Aggregator, SymmetricOnTinyGraphByHand) {
  // Path 0-1-2: out[0] = in[1]/sqrt(1·2); out[1] = in[0]/sqrt(2) + in[2]/sqrt(2).
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  Matrix in(3, 1);
  in(0, 0) = 2.0f;
  in(1, 0) = 4.0f;
  in(2, 0) = 6.0f;
  Matrix out(3, 1);
  aggregate_forward(g, AggregatorKind::kSymmetric, in, out);
  EXPECT_NEAR(out(0, 0), 4.0f / std::sqrt(2.0f), 1e-5);
  EXPECT_NEAR(out(1, 0), (2.0f + 6.0f) / std::sqrt(2.0f), 1e-5);
}

TEST_P(AggregatorSweep, Propagate2dMatchesPlain) {
  // Regression: propagate_2d used to hardcode mean normalization no matter
  // which aggregator the layer was configured with.
  const CsrGraph g = gsgcn::testing::small_er(120, 600, 44);
  const Matrix in = random_features(120, 24, 45);
  Matrix out(120, 24), ref(120, 24);
  const graph::Partition p = graph::partition_hash(120, 5);
  propagate_2d(g, p, 3, GetParam(), in, out, 2);
  aggregate_forward(g, GetParam(), in, ref);
  EXPECT_LT(Matrix::max_abs_diff(out, ref), 1e-4f);
}

// ---- adjoint property on every kernel path --------------------------------

// ⟨Ax, y⟩ must equal ⟨x, Aᵀy⟩ whichever kernel computes A. The graph keeps
// 8 isolated vertices (empty-neighbor rows) and f = 5 stays below the
// 8-wide vector width, so only the scalar tail runs.
TEST_P(AggregatorSweep, AdjointOnEveryKernelPath) {
  const AggregatorKind kind = GetParam();
  constexpr Vid kN = 64;  // vertices 56..63 stay isolated
  std::vector<graph::Edge> edges;
  for (Vid i = 0; i + 1 < 56; ++i) edges.push_back({i, i + 1});
  for (Vid i = 0; i < 56; ++i) edges.push_back({i, (i + 13) % 56});
  const CsrGraph g = CsrGraph::from_edges(
      kN, std::span<const graph::Edge>(edges.data(), edges.size()));
  constexpr std::size_t kF = 5;
  const Matrix x = random_features(kN, kF, 48);
  const Matrix y = random_features(kN, kF, 49);
  const graph::Partition parts = graph::partition_range(kN, 4);
  const std::vector<float> w_fwd =
      tiled::source_weights(g, kind, /*backward=*/false);

  const auto forward = [&](int path, const Matrix& src, Matrix& dst) {
    switch (path) {
      case 0: aggregate_forward(g, kind, src, dst, 2); break;
      case 1: aggregate_forward_edge_centric(g, kind, src, dst, 2); break;
      case 2: {
        FeaturePartitionOptions opts;
        opts.threads = 2;
        opts.aggregator = kind;
        propagate_feature_partitioned(g, src, dst, opts);
        break;
      }
      case 3: propagate_2d(g, parts, 2, kind, src, dst, 2); break;
      case 4:
        tiled::aggregate_rows(g, kind, /*backward=*/false, src, dst, 0, kN, 0,
                              kF, w_fwd.empty() ? nullptr : w_fwd.data());
        break;
      default: FAIL();
    }
  };
  const auto backward = [&](int path, const Matrix& src, Matrix& dst) {
    if (path == 2) {
      FeaturePartitionOptions opts;
      opts.threads = 2;
      opts.aggregator = kind;
      propagate_feature_partitioned_backward(g, src, dst, opts);
    } else {
      aggregate_backward(g, kind, src, dst, 2);
    }
  };

  for (int path = 0; path < 5; ++path) {
    Matrix ax(kN, kF), aty(kN, kF);
    forward(path, x, ax);
    backward(path, y, aty);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      lhs += static_cast<double>(ax.data()[i]) * y.data()[i];
      rhs += static_cast<double>(x.data()[i]) * aty.data()[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-2) << "path " << path;
    // Isolated vertices aggregate to zero on every path.
    for (Vid v = 56; v < kN; ++v) {
      for (std::size_t j = 0; j < kF; ++j) {
        EXPECT_EQ(ax(v, j), 0.0f) << "path " << path << " v " << v;
      }
    }
  }
}

// ---- bit-identity across Q, threads and kernel entry points ---------------

// Q depends on the thread count (and on S_cache when a caller pins it),
// so the tiled kernel must produce bit-identical results for ANY slicing
// — this is what keeps checkpoint/resume histories byte-stable across
// machines.
TEST_P(AggregatorSweep, BitIdenticalAcrossThreadsAndQ) {
  const AggregatorKind kind = GetParam();
  const CsrGraph g = gsgcn::testing::small_er(150, 700, 50);
  const Matrix in = random_features(150, 37, 51);
  const std::size_t bytes = 150 * 37 * sizeof(float);
  Matrix base(150, 37);
  FeaturePartitionOptions ref_opts;
  ref_opts.threads = 1;
  ref_opts.force_q = 1;
  ref_opts.aggregator = kind;
  propagate_feature_partitioned(g, in, base, ref_opts);
  for (int threads : {1, 2, 4}) {
    for (int q : {2, 5, 8, 37}) {
      FeaturePartitionOptions opts;
      opts.threads = threads;
      opts.force_q = q;
      opts.aggregator = kind;
      Matrix out(150, 37);
      propagate_feature_partitioned(g, in, out, opts);
      ASSERT_EQ(0, std::memcmp(out.data(), base.data(), bytes))
          << "threads=" << threads << " q=" << q;
    }
  }
  // The plain entry point and the default-options path land on the same
  // bits.
  Matrix plain(150, 37);
  aggregate_forward(g, kind, in, plain, 4);
  EXPECT_EQ(0, std::memcmp(plain.data(), base.data(), bytes));
  Matrix defaults(150, 37);
  FeaturePartitionOptions default_opts;
  default_opts.threads = 2;
  default_opts.aggregator = kind;
  propagate_feature_partitioned(g, in, defaults, default_opts);
  EXPECT_EQ(0, std::memcmp(defaults.data(), base.data(), bytes));
}

TEST_P(AggregatorSweep, BackwardBitIdenticalAcrossThreadsAndQ) {
  const AggregatorKind kind = GetParam();
  const CsrGraph g = gsgcn::testing::small_er(150, 700, 52);
  const Matrix d_out = random_features(150, 21, 53);
  const std::size_t bytes = 150 * 21 * sizeof(float);
  Matrix base(150, 21);
  FeaturePartitionOptions ref_opts;
  ref_opts.threads = 1;
  ref_opts.force_q = 1;
  ref_opts.aggregator = kind;
  propagate_feature_partitioned_backward(g, d_out, base, ref_opts);
  for (int threads : {1, 4}) {
    for (int q : {3, 21}) {
      FeaturePartitionOptions opts;
      opts.threads = threads;
      opts.force_q = q;
      opts.aggregator = kind;
      Matrix d_in(150, 21);
      propagate_feature_partitioned_backward(g, d_out, d_in, opts);
      ASSERT_EQ(0, std::memcmp(d_in.data(), base.data(), bytes))
          << "threads=" << threads << " q=" << q;
    }
  }
  Matrix plain(150, 21);
  aggregate_backward(g, kind, d_out, plain, 4);
  EXPECT_EQ(0, std::memcmp(plain.data(), base.data(), bytes));
}

TEST(Propagate2d, HashPartitionAlsoCorrect) {
  const CsrGraph g = gsgcn::testing::small_er(120, 600, 19);
  const Matrix in = random_features(120, 16, 20);
  Matrix out(120, 16), ref(120, 16);
  const graph::Partition p = graph::partition_hash(120, 5);
  propagate_2d(g, p, 2, AggregatorKind::kMean, in, out, 2);
  aggregate_mean_forward(g, in, ref);
  EXPECT_LT(Matrix::max_abs_diff(out, ref), 1e-4f);
}

}  // namespace
}  // namespace gsgcn::propagation
