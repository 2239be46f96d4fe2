#include "gcn/inference.hpp"

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
  const auto& layers = model.layers();
  if (layers.empty()) throw std::invalid_argument("infer_logits: no layers");
  if (x.rows() != g.num_vertices() || x.cols() != layers.front().in_dim()) {
    throw std::invalid_argument("infer_logits: input shape " + x.shape_str());
  }
  const std::size_t n = x.rows();

  const tensor::Matrix* h = &x;
  tensor::Matrix* next = &scratch.h_a;
  tensor::Matrix* spare = &scratch.h_b;
  for (const auto& layer : layers) {
    const std::size_t fo = layer.out_dim();
    ensure_shape(scratch.agg, n, layer.in_dim());
    ensure_shape(*next, n, 2 * fo);

    propagation::FeaturePartitionOptions opts;
    opts.threads = threads;
    opts.aggregator = layer.aggregator();
    propagation::propagate_feature_partitioned(g, *h, scratch.agg, opts);

    // Same zero-copy shape as GraphConvLayer::forward: GEMMs write the
    // two concat halves in place, ReLU fused into the store.
    const auto epilogue = layer.has_relu() ? tensor::Epilogue::kRelu
                                           : tensor::Epilogue::kNone;
    tensor::gemm_nn(*h, layer.w_self(),
                    tensor::MatrixView::cols_slice(*next, 0, fo), 1.0f, 0.0f,
                    threads, epilogue);
    tensor::gemm_nn(scratch.agg, layer.w_neigh(),
                    tensor::MatrixView::cols_slice(*next, fo, fo), 1.0f, 0.0f,
                    threads, epilogue);

    h = next;
    std::swap(next, spare);
  }

  ensure_shape(scratch.logits, n, model.w_cls().cols());
  tensor::gemm_nn(*h, model.w_cls(), scratch.logits, 1.0f, 0.0f, threads);
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
  ensure_shape(scratch.pred, logits.rows(), logits.cols());
  predict(ds.mode, logits, scratch.pred);
  ensure_shape(scratch.subset_pred, subset.size(), logits.cols());
  ensure_shape(scratch.subset_truth, subset.size(), logits.cols());
  tensor::gather_rows(scratch.pred, subset, scratch.subset_pred, threads);
  tensor::gather_rows(ds.labels, subset, scratch.subset_truth, threads);
  return f1_micro(scratch.subset_pred, scratch.subset_truth);
}

}  // namespace gsgcn::gcn
