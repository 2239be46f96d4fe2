// Cross-module property tests: algebraic laws that must hold across the
// whole stack — CSR construction vs a set oracle, permutation
// equivariance of propagation and of the full GCN, induction
// composition, GEMM associativity.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "gcn/model.hpp"
#include "graph/reorder.hpp"
#include "graph/subgraph.hpp"
#include "propagation/spmm.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace gsgcn {
namespace {

using graph::CsrGraph;
using graph::Edge;
using graph::Vid;
using tensor::Matrix;

TEST(Property, CsrMatchesSetOracleOnRandomEdgeLists) {
  util::Xoshiro256 rng(1);
  for (int trial = 0; trial < 25; ++trial) {
    const Vid n = 20 + rng.below(80);
    const int m = static_cast<int>(rng.below(300));
    std::vector<Edge> edges;
    std::map<Vid, std::set<Vid>> oracle;
    for (int e = 0; e < m; ++e) {
      const Vid u = rng.below(n), v = rng.below(n);
      edges.push_back({u, v});
      if (u != v) {
        oracle[u].insert(v);
        oracle[v].insert(u);
      }
    }
    const CsrGraph g = CsrGraph::from_edges(n, edges);
    ASSERT_TRUE(g.validate().empty()) << g.validate();
    for (Vid v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      const auto& expect = oracle[v];
      ASSERT_EQ(nbrs.size(), expect.size()) << "vertex " << v;
      std::size_t i = 0;
      for (const Vid u : expect) EXPECT_EQ(nbrs[i++], u);
    }
  }
}

TEST(Property, PropagationCommutesWithRelabeling) {
  // agg(π(g), π(x)) == π(agg(g, x)) for any vertex permutation π.
  // Inducing every vertex in a chosen order is a relabeling.
  const CsrGraph g = gsgcn::testing::small_er(120, 500, 2);
  graph::Inducer inducer(g);
  const graph::Subgraph r = inducer.induce(graph::degree_order(g));
  util::Xoshiro256 rng(3);
  const Matrix x = Matrix::gaussian(120, 9, 1.0f, rng);

  Matrix y(120, 9);
  propagation::aggregate_mean_forward(g, x, y);

  Matrix x_perm(120, 9), y_perm_expect(120, 9);
  tensor::gather_rows(x, r.orig_ids, x_perm);
  tensor::gather_rows(y, r.orig_ids, y_perm_expect);

  Matrix y_perm(120, 9);
  propagation::aggregate_mean_forward(r.graph, x_perm, y_perm);
  EXPECT_LT(Matrix::max_abs_diff(y_perm, y_perm_expect), 1e-5f);
}

TEST(Property, GcnForwardIsPermutationEquivariant) {
  // The whole model (aggregation + weights + ReLU + classifier) must be
  // equivariant under vertex relabeling — the defining symmetry of GCNs.
  gcn::ModelConfig mc;
  mc.in_dim = 8;
  mc.hidden_dim = 5;
  mc.num_classes = 4;
  mc.num_layers = 2;
  mc.seed = 4;
  gcn::GcnModel model(mc);

  const CsrGraph g = gsgcn::testing::small_er(80, 350, 5);
  util::Xoshiro256 rng(6);
  graph::Inducer inducer(g);
  const graph::Subgraph r = inducer.induce(util::random_permutation(80, rng));
  const Matrix x = Matrix::gaussian(80, 8, 1.0f, rng);

  const Matrix logits = model.forward(g, x, 1);
  Matrix x_perm(80, 8), expect(80, 4);
  tensor::gather_rows(x, r.orig_ids, x_perm);
  tensor::gather_rows(logits, r.orig_ids, expect);
  const Matrix& got = model.forward(r.graph, x_perm, 1);
  EXPECT_LT(Matrix::max_abs_diff(got, expect), 1e-4f);
}

TEST(Property, InductionComposes) {
  // induce(induce(g, A), B-as-local) == induce(g, A∘B).
  const CsrGraph g = gsgcn::testing::small_er(200, 900, 7);
  graph::Inducer inducer(g);
  util::Xoshiro256 rng(8);
  const auto a = util::sample_without_replacement(200, 120, rng);
  const std::vector<Vid> a_list(a.begin(), a.end());
  const graph::Subgraph first = inducer.induce(a_list);

  const auto b = util::sample_without_replacement(120, 50, rng);
  std::vector<Vid> b_local(b.begin(), b.end());
  graph::Inducer inner(first.graph);
  const graph::Subgraph second = inner.induce(b_local);

  std::vector<Vid> composed;
  composed.reserve(b_local.size());
  for (const Vid lv : b_local) composed.push_back(first.orig_ids[lv]);
  const graph::Subgraph direct = inducer.induce(composed);

  ASSERT_EQ(second.num_vertices(), direct.num_vertices());
  EXPECT_EQ(second.graph.offsets(), direct.graph.offsets());
  EXPECT_EQ(second.graph.adjacency(), direct.graph.adjacency());
  for (Vid lv = 0; lv < second.num_vertices(); ++lv) {
    EXPECT_EQ(first.orig_ids[second.orig_ids[lv]], direct.orig_ids[lv]);
  }
}

TEST(Property, GemmIsAssociative) {
  util::Xoshiro256 rng(9);
  const Matrix a = Matrix::gaussian(14, 10, 1.0f, rng);
  const Matrix b = Matrix::gaussian(10, 12, 1.0f, rng);
  const Matrix c = Matrix::gaussian(12, 7, 1.0f, rng);
  Matrix ab(14, 12), abc1(14, 7), bc(10, 7), abc2(14, 7);
  tensor::gemm_nn(a, b, ab);
  tensor::gemm_nn(ab, c, abc1);
  tensor::gemm_nn(b, c, bc);
  tensor::gemm_nn(a, bc, abc2);
  EXPECT_LT(Matrix::max_abs_diff(abc1, abc2), 1e-3f);
}

TEST(Property, TransposeIdentitiesAcrossGemmVariants) {
  // gemm_tn(A, B) == gemm_nn(Aᵀ, B) and gemm_nt(A, B) == gemm_nn(A, Bᵀ).
  util::Xoshiro256 rng(10);
  const Matrix a = Matrix::gaussian(9, 6, 1.0f, rng);   // used as Aᵀ too
  const Matrix b = Matrix::gaussian(9, 8, 1.0f, rng);
  Matrix at(6, 9);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 6; ++j) at(j, i) = a(i, j);
  }
  Matrix via_tn(6, 8), via_nn(6, 8);
  tensor::gemm_tn(a, b, via_tn);
  tensor::gemm_nn(at, b, via_nn);
  EXPECT_LT(Matrix::max_abs_diff(via_tn, via_nn), 1e-4f);

  const Matrix c = Matrix::gaussian(8, 6, 1.0f, rng);  // used as Cᵀ
  Matrix ct(6, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 6; ++j) ct(j, i) = c(i, j);
  }
  Matrix via_nt(9, 8), via_nn2(9, 8);
  tensor::gemm_nt(a, c, via_nt);   // a(9,6) · cᵀ(6,8)
  tensor::gemm_nn(a, ct, via_nn2);
  EXPECT_LT(Matrix::max_abs_diff(via_nt, via_nn2), 1e-4f);
}

TEST(Property, MeanAggregationIsAffineInvariant) {
  // Mean of (αx + β1) = α·mean(x) + β1 row-wise (for vertices with
  // neighbors) — catches normalization bugs.
  const CsrGraph g = gsgcn::testing::small_er(80, 400, 11);
  util::Xoshiro256 rng(12);
  const Matrix x = Matrix::gaussian(80, 5, 1.0f, rng);
  Matrix shifted = x;
  tensor::scale_inplace(shifted, 2.0f);
  for (std::size_t i = 0; i < shifted.size(); ++i) shifted.data()[i] += 3.0f;

  Matrix mx(80, 5), ms(80, 5);
  propagation::aggregate_mean_forward(g, x, mx);
  propagation::aggregate_mean_forward(g, shifted, ms);
  for (Vid v = 0; v < 80; ++v) {
    if (g.degree(v) == 0) continue;
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(ms(v, j), 2.0f * mx(v, j) + 3.0f, 1e-4f);
    }
  }
}

}  // namespace
}  // namespace gsgcn
