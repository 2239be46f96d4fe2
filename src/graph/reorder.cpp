#include "graph/reorder.hpp"

#include <algorithm>
#include <numeric>

namespace gsgcn::graph {

std::vector<Vid> degree_order(const CsrGraph& g) {
  const Vid n = g.num_vertices();
  std::vector<Vid> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](Vid a, Vid b) {
    return g.degree(a) > g.degree(b);
  });
  return order;
}

}  // namespace gsgcn::graph
