#pragma once
// Intra-subgraph feature propagation kernels ((A^(ℓ))ᵀ · H of Algorithm 1).
//
// The aggregator is the neighbor MEAN (paper Section II-A step 1): for
// every subgraph vertex v,  out[v] = (1/deg v) Σ_{u ∈ N(v)} in[u].
// The backward operator propagates gradients the opposite way:
// dIn[u] = Σ_{v ∈ N(u)} dOut[v] / deg(v). Both stream CSR rows and do
// random reads on the dense operand, exactly the access pattern Section V
// models. Degree-0 vertices aggregate to zero.
//
// Every gather-style entry point below bottoms out in the tiled::
// row-block kernel: per destination row, 32-float column chunks are
// accumulated in four ymm registers across the whole neighbor list and
// stored once, with the degree normalization fused into the store (the
// way ReLU was fused into the GEMM epilogue). One store pass instead of
// the old memset + per-neighbor read-modify-write + scale passes — the
// kernel is bandwidth-bound, so that is where the speedup lives.

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/matrix.hpp"

namespace gsgcn::propagation {

/// Neighbor-aggregation semantics.
///   kMean:      out[v] = (1/deg v) Σ in[u]          (the paper's choice)
///   kSum:       out[v] = Σ in[u]
///   kSymmetric: out[v] = Σ in[u] / √(deg v · deg u)  (Kipf-GCN norm,
///               self-adjoint: forward and backward are the same operator)
enum class AggregatorKind { kMean, kSum, kSymmetric };

const char* aggregator_name(AggregatorKind kind);

/// Generic forward aggregation, parallel over destination vertices.
/// in and out must both be |V| x f and must not alias.
void aggregate_forward(const graph::CsrGraph& g, AggregatorKind kind,
                       const tensor::Matrix& in, tensor::Matrix& out,
                       int threads = 0);

/// Gradient (transpose operator) of aggregate_forward.
void aggregate_backward(const graph::CsrGraph& g, AggregatorKind kind,
                        const tensor::Matrix& d_out, tensor::Matrix& d_in,
                        int threads = 0);

/// Forward mean aggregation, parallel over destination vertices.
/// in and out must both be |V| x f and must not alias.
void aggregate_mean_forward(const graph::CsrGraph& g,
                            const tensor::Matrix& in, tensor::Matrix& out,
                            int threads = 0);

/// Gradient of aggregate_mean_forward. d_in and d_out are |V| x f.
void aggregate_mean_backward(const graph::CsrGraph& g,
                             const tensor::Matrix& d_out,
                             tensor::Matrix& d_in, int threads = 0);

/// Edge-centric forward aggregation (the X-Stream paradigm of the paper's
/// related work [8]): streams the edge list once and scatters
/// contributions to destination rows, instead of gathering per
/// destination. Races are avoided by giving each thread a contiguous
/// destination range and streaming only the edges that land in it —
/// which is exactly why the paper prefers gather-style kernels for
/// *small* sampled graphs: the per-thread edge scan is redundant work.
/// Included as the paradigm comparator for the propagation ablation.
void aggregate_forward_edge_centric(const graph::CsrGraph& g,
                                    AggregatorKind kind,
                                    const tensor::Matrix& in,
                                    tensor::Matrix& out, int threads = 0);

/// The row-block tiled kernel underneath every gather-style path above
/// (and the partitioned/2-D schemes in feature_partitioned.hpp). All
/// aggregators reduce to one form:
///   out[v][j] = s_v · Σ_{u ∈ N(v)} w[u] · in[u][j]
/// with a per-SOURCE weight table w (nullptr ⇒ w ≡ 1) and a per-DEST
/// epilogue scale s_v fused into the store:
///   sum (fwd = bwd):   w ≡ 1,          s_v = 1
///   mean forward:      w ≡ 1,          s_v = 1/deg v
///   mean backward:     w[u] = 1/deg u, s_v = 1
///   symmetric (= bwd): w[u] = 1/√deg u, s_v = 1/√deg v
/// Accumulation order is always CSR neighbor order and every column sees
/// the identical FMA/add chain regardless of which chunk width (32-wide,
/// 8-wide, scalar tail) or slice computed it, so results are bit-identical
/// for any Q, any row block, and any thread count — so the choice of Q
/// never touches numerics.
namespace tiled {

/// Row-block granularity the aggregate_* wrappers parallelize over.
inline constexpr std::int64_t kRowBlock = 64;

/// Widest column chunk a row accumulates in registers (four ymm). Narrower
/// slices fall back to 8-wide and scalar chunks.
inline constexpr std::size_t kChunkCols = 32;

/// Per-source weight table for (kind, backward), or empty when the path
/// needs none (sum always; mean forward, whose 1/deg is the epilogue).
std::vector<float> source_weights(const graph::CsrGraph& g,
                                  AggregatorKind kind, bool backward,
                                  int threads = 0);

/// Aggregate rows [row_begin, row_end) × columns [col_begin, col_end).
/// src_weights must be source_weights(g, kind, backward).data() when that
/// table is non-empty and nullptr otherwise.
void aggregate_rows(const graph::CsrGraph& g, AggregatorKind kind,
                    bool backward, const tensor::Matrix& in,
                    tensor::Matrix& out, graph::Vid row_begin,
                    graph::Vid row_end, std::size_t col_begin,
                    std::size_t col_end, const float* src_weights);

/// Same kernel over an explicit vertex list (propagate_2d's tiles).
void aggregate_rows(const graph::CsrGraph& g, AggregatorKind kind,
                    bool backward, const tensor::Matrix& in,
                    tensor::Matrix& out, std::span<const graph::Vid> rows,
                    std::size_t col_begin, std::size_t col_end,
                    const float* src_weights);

}  // namespace tiled

/// Serial, double-accumulated references for tests.
namespace reference {
void aggregate_mean_forward(const graph::CsrGraph& g,
                            const tensor::Matrix& in, tensor::Matrix& out);
void aggregate_mean_backward(const graph::CsrGraph& g,
                             const tensor::Matrix& d_out,
                             tensor::Matrix& d_in);
void aggregate_forward(const graph::CsrGraph& g, AggregatorKind kind,
                       const tensor::Matrix& in, tensor::Matrix& out);
void aggregate_backward(const graph::CsrGraph& g, AggregatorKind kind,
                        const tensor::Matrix& d_out, tensor::Matrix& d_in);
}  // namespace reference

}  // namespace gsgcn::propagation
