#pragma once
// One GCN layer (paper Algorithm 1, lines 7-9):
//
//   H_neigh = (A_GS)ᵀ · H_in · W_neigh      (mean aggregation + weights)
//   H_self  = H_in · W_self
//   H_out   = σ( H_self ‖ H_neigh )          (concat, then ReLU)
//
// Output width is therefore 2·out_dim. The feature aggregation runs
// through the feature-partitioned propagation kernel (Section V-B); the
// weight applications are GEMMs (Section V-A). Backward is hand-derived
// and validated against numerical differentiation in the tests.

#include "graph/csr.hpp"
#include "propagation/feature_partitioned.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace gsgcn::gcn {

class GraphConvLayer {
 public:
  /// in_dim → 2·out_dim (self ‖ neigh). `relu` is off for pre-logit use.
  /// `aggregator` selects the neighbor-aggregation semantics (the paper
  /// uses the mean; sum and symmetric-GCN normalization are provided for
  /// the aggregator ablation). `index` is the layer's position in its
  /// model, the trace-span argument of its phase scopes.
  GraphConvLayer(std::size_t in_dim, std::size_t out_dim, bool relu,
                 util::Xoshiro256& rng,
                 propagation::AggregatorKind aggregator =
                     propagation::AggregatorKind::kMean,
                 int index = 0);

  /// Inverted dropout on the layer input while training (0 = disabled).
  void set_dropout(float rate);
  float dropout() const { return dropout_rate_; }

  /// The dropout mask stream. Checkpointing saves/restores its state so a
  /// resumed run draws the same masks the uninterrupted run would have.
  util::Xoshiro256& dropout_rng() { return dropout_rng_; }
  const util::Xoshiro256& dropout_rng() const { return dropout_rng_; }

  /// Forward over the (sub)graph g. Keeps the activations needed by
  /// backward. `h_in` must stay alive until backward() returns. With
  /// `training` set, input dropout is applied (if configured). The
  /// dropout, SpMM and GEMM steps each run in an obs::PhaseScope.
  const tensor::Matrix& forward(const graph::CsrGraph& g,
                                const tensor::Matrix& h_in, int threads,
                                bool training = false);

  /// Backward: consumes d(H_out), fills the weight gradients and returns
  /// d(H_in). Must follow a forward() on the same graph/input.
  const tensor::Matrix& backward(const graph::CsrGraph& g,
                                 const tensor::Matrix& d_out, int threads);

  /// Backward for the weights only: the same weight gradients as
  /// backward(), bit for bit, without d(H_in) — no input-gradient GEMMs,
  /// no backward SpMM, no dropout mask. Returns the concat
  /// pre-activation gradient, which backward() consumes for d(H_in). The
  /// model's first layer calls it directly, since nothing reads the
  /// gradient of the input features.
  const tensor::Matrix& backward_weights(const tensor::Matrix& d_out,
                                         int threads);

  std::size_t in_dim() const { return w_self_.rows(); }
  std::size_t out_dim() const { return w_self_.cols(); }     // per branch
  std::size_t output_width() const { return 2 * out_dim(); }  // concat

  tensor::Matrix& w_self() { return w_self_; }
  tensor::Matrix& w_neigh() { return w_neigh_; }
  tensor::Matrix& grad_w_self() { return d_w_self_; }
  tensor::Matrix& grad_w_neigh() { return d_w_neigh_; }
  const tensor::Matrix& w_self() const { return w_self_; }
  const tensor::Matrix& w_neigh() const { return w_neigh_; }

  bool has_relu() const { return relu_; }
  int index() const { return index_; }
  propagation::AggregatorKind aggregator() const { return aggregator_; }

 private:
  bool relu_;
  propagation::AggregatorKind aggregator_;
  int index_;
  float dropout_rate_ = 0.0f;
  util::Xoshiro256 dropout_rng_{0x5eedu};
  tensor::Matrix dropout_mask_;  // scaled keep-mask of the last forward
  tensor::Matrix h_dropped_;     // input after dropout (training only)
  bool used_dropout_ = false;
  tensor::Matrix w_self_;    // in_dim x out_dim
  tensor::Matrix w_neigh_;   // in_dim x out_dim
  tensor::Matrix d_w_self_;
  tensor::Matrix d_w_neigh_;

  // Cached activations (batch-sized; resized on demand). The self/neigh
  // GEMMs write straight into the two column halves of act_ (strided
  // views), and the ReLU is fused into their store epilogue — so act_
  // holds σ([H_self | H_neigh]) and IS the layer output; there is no
  // separate concat buffer, post-activation copy, or per-branch scratch.
  const tensor::Matrix* h_in_ = nullptr;
  tensor::Matrix h_agg_;  // A·H_in
  tensor::Matrix act_;    // σ([H_self | H_neigh]) — the layer output

  // Backward scratch. The concat gradient is consumed through strided
  // column views, so no split buffers exist; d_pre_ is only materialized
  // on the ReLU path (without ReLU, d_out is used in place).
  tensor::Matrix d_pre_;
  tensor::Matrix d_agg_;
  tensor::Matrix d_in_;
};

/// Resize helper: (re)allocate only when the shape changes, so steady-state
/// training does no allocation.
void ensure_shape(tensor::Matrix& m, std::size_t rows, std::size_t cols);

}  // namespace gsgcn::gcn
