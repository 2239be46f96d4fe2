#pragma once
// Vertex ordering for memory locality.
//
// Feature propagation reads source-vertex rows in neighbor order; the
// high-degree vertices are the ones read most often. Ranking them first
// is the classic degree-ordering optimization from the
// PageRank/propagation-blocking literature the paper builds on ([7], [9]).

#include <vector>

#include "graph/csr.hpp"

namespace gsgcn::graph {

/// Vertex ids by descending degree (ties by original id, so
/// deterministic). This is the hot-vertex priority the feature store uses
/// for cache residency: the highest-degree vertices are the rows a
/// sampled gather touches most.
std::vector<Vid> degree_order(const CsrGraph& g);

}  // namespace gsgcn::graph
