// Communication-model (Theorem 2) tests: the closed-form g_comm, the Q*
// choice, the 2-approximation guarantee under the theorem's
// preconditions, and the lower bound.

#include <gtest/gtest.h>

#include "graph/partition.hpp"
#include "propagation/comm_model.hpp"
#include "test_helpers.hpp"

namespace gsgcn::propagation {
namespace {

CommModelParams paper_params() {
  // The paper's "typical values": n ≤ 8000, f = 512, d = 15,
  // DOUBLE features, INT16 indices, 256KB cache.
  CommModelParams m;
  m.n = 8000;
  m.d = 15.0;
  m.f = 512;
  m.elem_bytes = 8;
  m.idx_bytes = 2;
  m.cache_bytes = 256 * 1024;
  m.processors = 40;
  return m;
}

TEST(CommModel, GcompIndependentOfPartitioning) {
  const CommModelParams m = paper_params();
  EXPECT_DOUBLE_EQ(g_comp(m), 8000.0 * 15.0 * 512.0);
}

TEST(CommModel, GcommFormula) {
  const CommModelParams m = paper_params();
  // P=1, Q=1, γ=1: 2·n·d + 8·n·f.
  const double expect = 2.0 * 8000 * 15 + 8.0 * 8000 * 512;
  EXPECT_DOUBLE_EQ(g_comm(m, 1, 1, 1.0), expect);
}

TEST(CommModel, GcommRejectsBadArgs) {
  const CommModelParams m = paper_params();
  EXPECT_THROW(g_comm(m, 0, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(g_comm(m, 1, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g_comm(m, 1, 1, 1.5), std::invalid_argument);
}

TEST(CommModel, LowerBoundHoldsForAllFeasiblePQ) {
  const CommModelParams m = paper_params();
  for (int p = 1; p <= 16; p *= 2) {
    for (int q = 1; q <= 512; q *= 2) {
      // γ_P ≥ 1/P always; use the most favorable γ for the adversary.
      EXPECT_GE(g_comm(m, p, q, 1.0 / p), g_comm_lower_bound(m) - 1e-6);
    }
  }
}

TEST(CommModel, ChooseQSatisfiesConstraints) {
  const CommModelParams m = paper_params();
  const int q = choose_feature_partitions(m);
  EXPECT_GE(q, m.processors);                       // Q ≥ C
  const double per_slice_bytes =
      static_cast<double>(m.elem_bytes) * m.n * m.f / q;
  EXPECT_LE(per_slice_bytes, static_cast<double>(m.cache_bytes));  // fits
}

TEST(CommModel, ChooseQCacheBound) {
  CommModelParams m = paper_params();
  m.processors = 1;
  // ⌈8·8000·512 bytes / 256 KiB⌉ = ⌈32768000/262144⌉ = 125 slices needed.
  EXPECT_GE(choose_feature_partitions(m), 125);
}

TEST(CommModel, ParallelQIsCWhateverTheSize) {
  // One slice per processor at any n. Theorem 2 alone slices 125 ways at
  // n = 8000 and one slice per feature at n = 200000 (3125 wanted, f =
  // 512 allowed); the parallel Q stays at C for both.
  CommModelParams m = paper_params();
  m.processors = 4;
  EXPECT_GE(choose_feature_partitions(m), 125);
  EXPECT_EQ(choose_parallel_partitions(m.f, m.processors), 4);
  m.n = 200000;
  EXPECT_EQ(choose_feature_partitions(m), 512);
  EXPECT_EQ(choose_parallel_partitions(m.f, m.processors), 4);
}

TEST(CommModel, ParallelQStopsAtMinSlice) {
  // No slice narrower than kMinSliceCols = 32 features: f = 64 feeds 2 of
  // 4 processors, a partial slice still counts, and f < 32 is one slice.
  EXPECT_EQ(kMinSliceCols, 32);
  EXPECT_EQ(choose_parallel_partitions(64, 4), 2);
  EXPECT_EQ(choose_parallel_partitions(65, 4), 3);
  EXPECT_EQ(choose_parallel_partitions(3, 8), 1);
  EXPECT_EQ(choose_parallel_partitions(0, 8), 1);
  EXPECT_EQ(choose_parallel_partitions(4096, 8), 8);
}

TEST(CommModel, ParallelQThrowsWithoutProcessors) {
  EXPECT_THROW(choose_parallel_partitions(64, 0), std::invalid_argument);
}

TEST(CommModel, ChooseQThrowsOnZeroCache) {
  // Regression: cache_bytes = 0 used to feed an unguarded division whose
  // infinite quotient hit UB on the float→int cast.
  CommModelParams m = paper_params();
  m.cache_bytes = 0;
  EXPECT_THROW(choose_feature_partitions(m), std::invalid_argument);
}

TEST(CommModel, IndexStreamBoundUsesFullCache) {
  // Pins the paper's form of the second precondition: idx·n·d ≤ S_cache
  // (2nd ≤ S with idx = 2 bytes) — the FULL cache, not half of it. An
  // index stream between S/2 and S must still pass; beyond S it fails.
  CommModelParams m = paper_params();
  m.n = 6000;  // idx·n·d = 2·6000·15 = 180000 ∈ (131072, 262144]
  EXPECT_TRUE(theorem2_preconditions(m));
  m.n = 9000;  // 270000 > 262144
  EXPECT_FALSE(theorem2_preconditions(m));
}

TEST(CommModel, Theorem2TwoApproximation) {
  // Under the preconditions, g_comm(1, Q*) ≤ 2 · lower bound, hence ≤ 2 ·
  // optimum over all feasible (P, Q, γ).
  const CommModelParams m = paper_params();
  ASSERT_TRUE(theorem2_preconditions(m));
  const int q_star = choose_feature_partitions(m);
  const double ours = g_comm(m, 1, q_star, 1.0);
  EXPECT_LE(ours, 2.0 * g_comm_lower_bound(m) * (1.0 + 1e-9));
}

TEST(CommModel, Theorem2SweepOverScenarios) {
  // Sweep n, f, C: whenever the preconditions hold, the 2-approximation
  // must hold as well.
  for (std::int64_t n : {500, 2000, 8000}) {
    for (std::int64_t f : {64, 256, 512}) {
      for (int c : {1, 4, 16, 40, 136}) {
        CommModelParams m = paper_params();
        m.n = n;
        m.f = f;
        m.processors = c;
        if (!theorem2_preconditions(m)) continue;
        const int q = choose_feature_partitions(m);
        EXPECT_LE(g_comm(m, 1, q, 1.0),
                  2.0 * g_comm_lower_bound(m) * (1.0 + 1e-9))
            << "n=" << n << " f=" << f << " C=" << c;
      }
    }
  }
}

TEST(CommModel, PreconditionsFailForHugeC) {
  CommModelParams m = paper_params();
  m.processors = 10000;  // C > 4f/d
  EXPECT_FALSE(theorem2_preconditions(m));
}

TEST(CommModel, PreconditionsFailForHugeGraph) {
  CommModelParams m = paper_params();
  m.n = 10'000'000;  // idx stream no longer fits cache
  EXPECT_FALSE(theorem2_preconditions(m));
}

TEST(CommModel, FeatureOnlyBeatsGraphPartitioningOnMeasuredGamma) {
  // Measured γ_P on a real small graph: with d ≫ 1 and few parts, each
  // part still touches most sources, so P > 1 pays ~P× feature traffic.
  const auto g = gsgcn::testing::small_er(500, 5000, 3);
  CommModelParams m;
  m.n = g.num_vertices();
  m.d = g.average_degree();
  m.f = 256;
  m.elem_bytes = 4;
  m.idx_bytes = 4;
  m.processors = 8;
  const int q_star = choose_feature_partitions(m);
  const double ours = g_comm(m, 1, q_star, 1.0);
  for (std::uint32_t parts : {2u, 4u, 8u}) {
    const auto part = graph::partition_range(g.num_vertices(), parts);
    const double gamma = graph::gamma_mean(g, part);
    // Feature slices so each part's sources fit cache (q ≥ 1).
    const double val = g_comm(m, static_cast<int>(parts),
                              std::max(1, q_star / static_cast<int>(parts)),
                              gamma);
    EXPECT_LE(ours, val * 2.0 + 1e-6);
  }
}

}  // namespace
}  // namespace gsgcn::propagation
