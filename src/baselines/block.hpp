#pragma once
// Bipartite propagation block for layer-sampling baselines.
//
// Layer sampling (GraphSAGE, FastGCN) gives each GCN layer its own node
// set, so feature aggregation runs over a *bipartite* graph from layer
// ℓ−1's nodes to layer ℓ's nodes — this block is its CSR. Edges may carry
// weights (FastGCN's importance correction); unweighted blocks aggregate
// the mean (GraphSAGE).

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/matrix.hpp"

namespace gsgcn::baselines {

class BipartiteBlock {
 public:
  /// offsets.size() == num_dst + 1; indices are positions in the source
  /// layer's node list (0 ≤ idx < num_src). weights empty = mean
  /// aggregation; else weighted sum with the given per-edge weights.
  BipartiteBlock(std::size_t num_src, std::vector<std::int64_t> offsets,
                 std::vector<std::uint32_t> indices,
                 std::vector<float> weights = {});

  std::size_t num_src() const { return num_src_; }
  std::size_t num_dst() const { return offsets_.size() - 1; }
  bool weighted() const { return !weights_.empty(); }

  /// out[v] = mean_{u ∈ N(v)} in[u]          (unweighted)
  /// out[v] = Σ_{u ∈ N(v)} w(v,u) · in[u]    (weighted)
  /// in: num_src x f, out: num_dst x f.
  void forward(const tensor::Matrix& in, tensor::Matrix& out,
               int threads) const;

  /// Transposed operator for gradients: d_in: num_src x f (overwritten),
  /// d_out: num_dst x f.
  void backward(const tensor::Matrix& d_out, tensor::Matrix& d_in,
                int threads) const;

  /// Consistency: monotone offsets, indices in range. Empty when valid.
  std::string validate() const;

 private:
  std::size_t num_src_;
  std::vector<std::int64_t> offsets_;
  std::vector<std::uint32_t> indices_;
  std::vector<float> weights_;
};

}  // namespace gsgcn::baselines
