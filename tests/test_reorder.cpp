// degree_order: the hot-vertex priority the feature store caches by must
// be a permutation with degrees descending and ties in id order.

#include <gtest/gtest.h>

#include <set>

#include "graph/reorder.hpp"
#include "test_helpers.hpp"

namespace gsgcn::graph {
namespace {

TEST(DegreeOrder, DegreesDescending) {
  const CsrGraph g = gsgcn::testing::small_er(200, 900, 2);
  const std::vector<Vid> order = degree_order(g);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(g.num_vertices()));
  EXPECT_EQ(std::set<Vid>(order.begin(), order.end()).size(), order.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(g.degree(order[i - 1]), g.degree(order[i]));
  }
}

TEST(DegreeOrder, TiesKeepIdOrder) {
  // Degrees of the 5-cycle with chord 1-3: {2, 3, 2, 3, 2}.
  EXPECT_EQ(degree_order(gsgcn::testing::tiny_graph()),
            (std::vector<Vid>{1, 3, 0, 2, 4}));
}

}  // namespace
}  // namespace gsgcn::graph
