#include "gcn/layer.hpp"

#include <stdexcept>

#include "obs/phase.hpp"
#include "tensor/ops.hpp"

namespace gsgcn::gcn {

void ensure_shape(tensor::Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() != rows || m.cols() != cols) {
    m = tensor::Matrix(rows, cols);
  }
}

GraphConvLayer::GraphConvLayer(std::size_t in_dim, std::size_t out_dim,
                               bool relu, util::Xoshiro256& rng,
                               propagation::AggregatorKind aggregator,
                               int index)
    : relu_(relu),
      aggregator_(aggregator),
      index_(index),
      dropout_rng_(rng()),
      w_self_(tensor::Matrix::glorot(in_dim, out_dim, rng)),
      w_neigh_(tensor::Matrix::glorot(in_dim, out_dim, rng)),
      d_w_self_(in_dim, out_dim),
      d_w_neigh_(in_dim, out_dim) {
  if (in_dim == 0 || out_dim == 0) {
    throw std::invalid_argument("GraphConvLayer: zero dimension");
  }
}

void GraphConvLayer::set_dropout(float rate) {
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("set_dropout: rate must be in [0, 1)");
  }
  dropout_rate_ = rate;
}

namespace {

using obs::Dir;
using obs::Op;
using obs::PhaseScope;

obs::Work gemm_pair_work(std::size_t m, std::size_t k, std::size_t n) {
  const obs::Work w = obs::gemm_work(static_cast<std::int64_t>(m),
                                     static_cast<std::int64_t>(k),
                                     static_cast<std::int64_t>(n), false);
  return {2 * w.flops, 2 * w.bytes};
}

obs::Work spmm_layer_work(const graph::CsrGraph& g, std::size_t cols) {
  return obs::spmm_work(static_cast<std::int64_t>(g.num_vertices()),
                        static_cast<std::int64_t>(g.num_edges()),
                        static_cast<std::int64_t>(cols));
}

}  // namespace

const tensor::Matrix& GraphConvLayer::forward(const graph::CsrGraph& g,
                                              const tensor::Matrix& h_in_raw,
                                              int threads, bool training) {
  if (h_in_raw.cols() != in_dim() || h_in_raw.rows() != g.num_vertices()) {
    throw std::invalid_argument("GraphConvLayer::forward: input shape " +
                                h_in_raw.shape_str());
  }
  const std::size_t n = h_in_raw.rows();
  const std::size_t fo = out_dim();

  // Inverted dropout on the input: keep with probability 1-p, scale by
  // 1/(1-p) so eval needs no rescaling. The mask is drawn from per-row
  // counter-based streams keyed by one draw from dropout_rng_ — the same
  // masks for any thread count, and the single checkpointed draw keeps
  // resumed runs bit-identical.
  used_dropout_ = training && dropout_rate_ > 0.0f;
  if (used_dropout_) {
    PhaseScope scope(Op::kElementwise, Dir::kForward, index_);
    ensure_shape(dropout_mask_, n, in_dim());
    ensure_shape(h_dropped_, n, in_dim());
    tensor::dropout_forward(h_in_raw, dropout_mask_, h_dropped_,
                            dropout_rate_, dropout_rng_(), threads);
  }
  const tensor::Matrix& h_in = used_dropout_ ? h_dropped_ : h_in_raw;
  h_in_ = &h_in;

  // Feature aggregation — the paper's partitioned kernel (Section V-B).
  // Each scope also (re)sizes the buffer its op writes.
  {
    PhaseScope scope(Op::kSpmm, Dir::kForward, index_,
                     spmm_layer_work(g, in_dim()));
    ensure_shape(h_agg_, n, in_dim());
    propagation::FeaturePartitionOptions opts;
    opts.threads = threads;
    opts.aggregator = aggregator_;
    propagation::propagate_feature_partitioned(g, h_in, h_agg_, opts);
  }

  // Weight application — dense GEMMs writing straight into the two concat
  // halves of act_ (strided views; no concat copy), with the ReLU fused
  // into the GEMM's store epilogue. Without ReLU the result is already
  // the output — no copy on that path either.
  {
    PhaseScope scope(Op::kGemm, Dir::kForward, index_,
                     gemm_pair_work(n, in_dim(), fo));
    ensure_shape(act_, n, 2 * fo);
    const auto epilogue =
        relu_ ? tensor::Epilogue::kRelu : tensor::Epilogue::kNone;
    tensor::gemm_nn(h_in, w_self_,
                    tensor::MatrixView::cols_slice(act_, 0, fo), 1.0f, 0.0f,
                    threads, epilogue);
    tensor::gemm_nn(h_agg_, w_neigh_,
                    tensor::MatrixView::cols_slice(act_, fo, fo), 1.0f, 0.0f,
                    threads, epilogue);
  }
  return act_;
}

const tensor::Matrix& GraphConvLayer::backward_weights(
    const tensor::Matrix& d_out, int threads) {
  if (h_in_ == nullptr) {
    throw std::logic_error("GraphConvLayer::backward before forward");
  }
  const tensor::Matrix& h_in = *h_in_;
  const std::size_t n = h_in.rows();
  const std::size_t fo = out_dim();
  if (d_out.rows() != n || d_out.cols() != 2 * fo) {
    throw std::invalid_argument("GraphConvLayer::backward: grad shape " +
                                d_out.shape_str());
  }

  // act_ holds the post-ReLU output, which carries the same x > 0 mask as
  // the pre-activation (relu(x) > 0 ⇔ x > 0). Without ReLU, d_out is the
  // concat gradient already — alias it instead of copying.
  if (relu_) {
    PhaseScope scope(Op::kElementwise, Dir::kBackward, index_);
    ensure_shape(d_pre_, n, 2 * fo);
    tensor::relu_backward(act_, d_out, d_pre_, threads);
  }
  const tensor::Matrix& d_pre = relu_ ? d_pre_ : d_out;
  // The two halves of the concat gradient, consumed in place as strided
  // views — no split copy, no per-branch scratch.
  PhaseScope scope(Op::kGemm, Dir::kBackward, index_,
                   gemm_pair_work(in_dim(), n, fo));
  tensor::gemm_tn(h_in, tensor::ConstMatrixView::cols_slice(d_pre, 0, fo),
                  d_w_self_, 1.0f, 0.0f, threads);
  tensor::gemm_tn(h_agg_, tensor::ConstMatrixView::cols_slice(d_pre, fo, fo),
                  d_w_neigh_, 1.0f, 0.0f, threads);
  return d_pre;
}

const tensor::Matrix& GraphConvLayer::backward(const graph::CsrGraph& g,
                                               const tensor::Matrix& d_out,
                                               int threads) {
  const tensor::Matrix& d_pre = backward_weights(d_out, threads);
  const std::size_t n = d_pre.rows();
  const std::size_t fo = out_dim();
  // Input gradient, dense parts: d_in = d_self·W_selfᵀ; d_agg = d_neigh·W_neighᵀ.
  {
    PhaseScope scope(Op::kGemm, Dir::kBackward, index_,
                     gemm_pair_work(n, fo, in_dim()));
    ensure_shape(d_agg_, n, in_dim());
    ensure_shape(d_in_, n, in_dim());
    tensor::gemm_nt(tensor::ConstMatrixView::cols_slice(d_pre, 0, fo),
                    w_self_, d_in_, 1.0f, 0.0f, threads);
    tensor::gemm_nt(tensor::ConstMatrixView::cols_slice(d_pre, fo, fo),
                    w_neigh_, d_agg_, 1.0f, 0.0f, threads);
  }

  // Sparse part: push d_agg back through the mean aggregation, reusing
  // h_agg_ as scratch for the propagated gradient.
  {
    PhaseScope scope(Op::kSpmm, Dir::kBackward, index_,
                     spmm_layer_work(g, in_dim()));
    propagation::FeaturePartitionOptions opts;
    opts.threads = threads;
    opts.aggregator = aggregator_;
    propagation::propagate_feature_partitioned_backward(g, d_agg_, h_agg_, opts);
  }
  PhaseScope scope(Op::kElementwise, Dir::kBackward, index_);
  tensor::add_scaled(d_in_, h_agg_, 1.0f, threads);
  // Undo the input dropout: gradients flow only through kept entries.
  if (used_dropout_) {
    tensor::hadamard_inplace(d_in_, dropout_mask_, threads);
  }
  return d_in_;
}

}  // namespace gsgcn::gcn
