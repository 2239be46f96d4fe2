#include "gcn/inference.hpp"

#include <algorithm>
#include <stdexcept>

#include "gcn/loss.hpp"
#include "gcn/metrics.hpp"
#include "obs/trace.hpp"
#include "propagation/feature_partitioned.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace gsgcn::gcn {

const tensor::Matrix& infer_logits(const GcnModel& model,
                                   const graph::CsrGraph& g,
                                   const tensor::Matrix& x,
                                   InferenceScratch& scratch, int threads) {
  using tensor::ConstMatrixView;
  using tensor::MatrixView;
  const auto& layers = model.layers();
  if (layers.empty()) throw std::invalid_argument("infer_logits: no layers");
  if (x.rows() != g.num_vertices() || x.cols() != layers.front().in_dim()) {
    throw std::invalid_argument("infer_logits: input shape " + x.shape_str());
  }
  const std::size_t n = x.rows();
  const std::size_t chunk = std::min(n, kInferenceChunkRows);
  ensure_shape(scratch.logits, n, model.w_cls().cols());

  const tensor::Matrix* h = &x;
  tensor::Matrix* next = &scratch.h_a;
  tensor::Matrix* spare = &scratch.h_b;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const GraphConvLayer& layer = layers[l];
    const bool last = l + 1 == layers.size();
    const std::size_t fo = layer.out_dim();
    ensure_shape(scratch.agg, chunk, layer.in_dim());
    // The last layer's output is consumed chunk by chunk; every other
    // layer's is the next aggregation's operand, read at any row.
    ensure_shape(last ? scratch.head : *next, last ? chunk : n, 2 * fo);

    propagation::FeaturePartitionOptions opts;
    opts.threads = threads;
    opts.aggregator = layer.aggregator();
    const auto epilogue = layer.has_relu() ? tensor::Epilogue::kRelu
                                           : tensor::Epilogue::kNone;
    for (std::size_t r0 = 0; r0 < n; r0 += chunk) {
      const std::size_t rows = std::min(chunk, n - r0);
      const MatrixView agg = MatrixView::rows_slice(scratch.agg, 0, rows);
      propagation::propagate_feature_partitioned(
          g, *h, agg, static_cast<graph::Vid>(r0),
          static_cast<graph::Vid>(r0 + rows), opts);
      // Same zero-copy shape as GraphConvLayer::forward: GEMMs write the
      // two concat halves in place, ReLU fused into the store.
      const MatrixView out =
          last ? MatrixView::rows_slice(scratch.head, 0, rows)
               : MatrixView::rows_slice(*next, r0, rows);
      tensor::gemm_nn(ConstMatrixView::rows_slice(*h, r0, rows),
                      layer.w_self(), MatrixView::cols_slice(out, 0, fo), 1.0f,
                      0.0f, threads, epilogue);
      tensor::gemm_nn(agg, layer.w_neigh(), MatrixView::cols_slice(out, fo, fo),
                      1.0f, 0.0f, threads, epilogue);
      if (last) {
        tensor::gemm_nn(out, model.w_cls(),
                        MatrixView::rows_slice(scratch.logits, r0, rows), 1.0f,
                        0.0f, threads);
      }
    }
    h = next;
    std::swap(next, spare);
  }
  tensor::add_bias_rows(scratch.logits,
                        {model.bias_cls().data(), model.bias_cls().cols()},
                        threads);
  return scratch.logits;
}

double evaluate_f1(const GcnModel& model, const data::Dataset& ds,
                   const std::vector<graph::Vid>& subset,
                   EvalScratch& scratch, int threads) {
  if (subset.empty()) return 0.0;
  GSGCN_TRACE_SPAN_ID("train/evaluate", subset.size());
  const tensor::Matrix& logits =
      infer_logits(model, ds.graph, ds.features, scratch.infer, threads);
  const std::size_t classes = logits.cols();
  ensure_shape(scratch.subset_logits, subset.size(), classes);
  ensure_shape(scratch.subset_pred, subset.size(), classes);
  ensure_shape(scratch.subset_truth, subset.size(), classes);
  tensor::gather_rows(logits, subset, scratch.subset_logits, threads);
  predict(ds.mode, scratch.subset_logits, scratch.subset_pred);
  tensor::gather_rows(ds.labels, subset, scratch.subset_truth, threads);
  return f1_micro(scratch.subset_pred, scratch.subset_truth);
}

}  // namespace gsgcn::gcn
