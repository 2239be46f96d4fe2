#pragma once
// Partitioned feature-propagation schemes.
//
// The paper's scheme (Algorithm 6): keep the graph whole (P = 1), split
// the feature dimension into Q = max{C, elem·n·f/S_cache} slices, and
// propagate Q/C rounds of C slices in parallel. Each processor's working
// set (one feature slice of all vertices) fits in its private cache, load
// balance is perfect (all processors do identical work per round), and
// there is no pre-processing. Q is analytic and a pure function of the
// shape: on this repo's row-major matrix, slicing pays only for
// parallelism, so Q = min{C, ⌈f/32⌉} unless the caller pins S_cache for
// Theorem 2's Q* (see comm_model.hpp).
//
// The 2-D scheme (P vertex parts × Q feature slices) is what the label-
// propagation literature would do; it is implemented here as the
// Theorem-2 ablation's comparator.

#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "propagation/comm_model.hpp"
#include "propagation/spmm.hpp"
#include "tensor/matrix.hpp"

namespace gsgcn::propagation {

struct FeaturePartitionOptions {
  int threads = 0;     // C (0 = OpenMP max)
  // Per-core private cache. 0 = slice for parallelism only
  // (choose_parallel_partitions); a caller value pins Theorem 2's Q*.
  std::size_t cache_bytes = 0;
  int force_q = 0;     // 0 = pick Q from cache_bytes as above
  AggregatorKind aggregator = AggregatorKind::kMean;
};

/// Mean aggregation via Algorithm 6 (P = 1, feature-only partitioning).
/// Result identical to aggregate_mean_forward; performance differs.
/// Returns the Q actually used.
int propagate_feature_partitioned(const graph::CsrGraph& g,
                                  const tensor::Matrix& in,
                                  tensor::Matrix& out,
                                  const FeaturePartitionOptions& opts = {});

/// The same aggregation restricted to destination rows [row_begin,
/// row_end): out is (row_end - row_begin) x f and its row i receives
/// vertex row_begin + i; `in` stays the whole |V| x f operand. Same Q
/// slices as the whole-graph form, and each row's values are bit-equal
/// to its row there — chunked full-graph inference runs on this.
int propagate_feature_partitioned(const graph::CsrGraph& g,
                                  const tensor::Matrix& in,
                                  tensor::MatrixView out, graph::Vid row_begin,
                                  graph::Vid row_end,
                                  const FeaturePartitionOptions& opts = {});

/// Backward (gradient) pass under the same partitioning.
int propagate_feature_partitioned_backward(
    const graph::CsrGraph& g, const tensor::Matrix& d_out,
    tensor::Matrix& d_in, const FeaturePartitionOptions& opts = {});

/// 2-D partitioned aggregation: vertex partition `parts` × q feature
/// slices, parallel over (part, slice) pairs. Same numerical result as
/// aggregate_forward(kind).
void propagate_2d(const graph::CsrGraph& g, const graph::Partition& parts,
                  int q, AggregatorKind kind, const tensor::Matrix& in,
                  tensor::Matrix& out, int threads = 0);

}  // namespace gsgcn::propagation
