#include "baselines/fastgcn.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "gcn/loss.hpp"
#include "gcn/metrics.hpp"
#include "graph/subgraph.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/timer.hpp"

namespace gsgcn::baselines {

FastGcnTrainer::FastGcnTrainer(const data::Dataset& dataset,
                               const FastGcnConfig& config)
    : ds_(dataset), cfg_(config), rng_(config.seed) {
  const std::string err = ds_.validate();
  if (!err.empty()) throw std::invalid_argument("FastGCN: bad dataset: " + err);
  if (cfg_.layer_samples == 0 || cfg_.batch_size == 0 || cfg_.num_layers < 1) {
    throw std::invalid_argument("FastGCN: bad config");
  }

  graph::Inducer inducer(ds_.graph);
  auto sub = inducer.induce(ds_.train_vertices, std::max(1, cfg_.threads));
  train_graph_ = std::move(sub.graph);
  train_orig_ = std::move(sub.orig_ids);
  train_features_ = tensor::Matrix(train_orig_.size(), ds_.feature_dim());
  train_labels_ = tensor::Matrix(train_orig_.size(), ds_.num_classes());
  tensor::gather_rows(ds_.features, train_orig_, train_features_,
                      cfg_.threads);
  tensor::gather_rows(ds_.labels, train_orig_, train_labels_, cfg_.threads);

  // Pre-processing: degree-proportional importance distribution.
  const graph::Vid n = train_graph_.num_vertices();
  q_.resize(n);
  q_cumsum_.resize(n + 1, 0.0);
  const double total = std::max<double>(1.0, static_cast<double>(train_graph_.num_edges()));
  for (graph::Vid v = 0; v < n; ++v) {
    q_[v] = static_cast<double>(train_graph_.degree(v)) / total;
    q_cumsum_[v + 1] = q_cumsum_[v] + q_[v];
  }

  gcn::ModelConfig mc;
  mc.in_dim = ds_.feature_dim();
  mc.hidden_dim = cfg_.hidden_dim;
  mc.num_classes = ds_.num_classes();
  mc.num_layers = cfg_.num_layers;
  mc.seed = cfg_.seed;
  model_ = std::make_unique<gcn::GcnModel>(mc);
  opt_ = std::make_unique<gcn::Adam>(gcn::AdamConfig{.lr = cfg_.lr});
  model_->attach(*opt_);
}

FastGcnBatch FastGcnTrainer::sample_batch(
    const std::vector<graph::Vid>& batch_vertices,
    util::Xoshiro256& rng) const {
  const int layers = cfg_.num_layers;
  const graph::Vid n = train_graph_.num_vertices();
  FastGcnBatch batch;
  batch.nodes.resize(static_cast<std::size_t>(layers) + 1);
  batch.nodes[static_cast<std::size_t>(layers)] = batch_vertices;

  for (int l = layers; l >= 1; --l) {
    const auto& dst = batch.nodes[static_cast<std::size_t>(l)];
    std::vector<graph::Vid> prev(dst);  // prefix: self path stays defined
    std::unordered_map<graph::Vid, std::uint32_t> pos;
    pos.reserve(prev.size() + cfg_.layer_samples);
    for (std::size_t i = 0; i < prev.size(); ++i) {
      pos.emplace(prev[i], static_cast<std::uint32_t>(i));
    }

    // Draw t nodes from q by inverse CDF; count multiplicity (draws are
    // i.i.d. with replacement, the estimator divides by t·q(u)).
    std::unordered_map<graph::Vid, std::uint32_t> multiplicity;
    multiplicity.reserve(cfg_.layer_samples);
    for (graph::Vid s = 0; s < cfg_.layer_samples; ++s) {
      const double r = rng.uniform() * q_cumsum_[n];
      const auto it =
          std::upper_bound(q_cumsum_.begin(), q_cumsum_.end(), r) - 1;
      const auto u = static_cast<graph::Vid>(
          std::min<std::ptrdiff_t>(it - q_cumsum_.begin(),
                                   static_cast<std::ptrdiff_t>(n) - 1));
      ++multiplicity[u];
      if (pos.emplace(u, static_cast<std::uint32_t>(prev.size())).second) {
        prev.push_back(u);
      }
    }

    // Reconstruct inter-layer edges: v ← u for u ∈ N(v) ∩ pool, weighted
    // by the unbiased mean estimator  mult(u) / (deg(v) · t · q(u)).
    const double t = static_cast<double>(cfg_.layer_samples);
    std::vector<std::int64_t> offsets(dst.size() + 1, 0);
    std::vector<std::uint32_t> indices;
    std::vector<float> weights;
    for (std::size_t i = 0; i < dst.size(); ++i) {
      const graph::Vid v = dst[i];
      const double dv = static_cast<double>(train_graph_.degree(v));
      for (const graph::Vid u : train_graph_.neighbors(v)) {
        const auto mit = multiplicity.find(u);
        if (mit == multiplicity.end()) continue;
        indices.push_back(pos.at(u));
        weights.push_back(static_cast<float>(
            static_cast<double>(mit->second) / (dv * t * q_[u])));
      }
      offsets[i + 1] = static_cast<std::int64_t>(indices.size());
    }
    batch.blocks.emplace(batch.blocks.begin(),
                         BipartiteBlock(prev.size(), std::move(offsets),
                                        std::move(indices), std::move(weights)));
    batch.nodes[static_cast<std::size_t>(l) - 1] = std::move(prev);
  }
  return batch;
}

float FastGcnTrainer::train_step(const FastGcnBatch& batch) {
  const int layers = cfg_.num_layers;
  const int threads = cfg_.threads;
  auto& convs = model_->layers();

  std::vector<tensor::Matrix> h(static_cast<std::size_t>(layers) + 1);
  std::vector<tensor::Matrix> agg(static_cast<std::size_t>(layers));
  std::vector<tensor::Matrix> pre(static_cast<std::size_t>(layers));
  h[0] = tensor::Matrix(batch.nodes[0].size(), ds_.feature_dim());
  tensor::gather_rows(train_features_, batch.nodes[0], h[0], threads);

  for (int l = 0; l < layers; ++l) {
    auto& conv = convs[static_cast<std::size_t>(l)];
    const auto lu = static_cast<std::size_t>(l);
    const std::size_t n_dst = batch.nodes[lu + 1].size();
    const std::size_t fo = conv.out_dim();

    agg[lu] = tensor::Matrix(n_dst, conv.in_dim());
    batch.blocks[lu].forward(h[lu], agg[lu], threads);

    tensor::Matrix h_self_in(n_dst, conv.in_dim());
    std::memcpy(h_self_in.data(), h[lu].data(),
                n_dst * conv.in_dim() * sizeof(float));

    tensor::Matrix self_out(n_dst, fo), neigh_out(n_dst, fo);
    tensor::gemm_nn(h_self_in, conv.w_self(), self_out, 1.0f, 0.0f, threads);
    tensor::gemm_nn(agg[lu], conv.w_neigh(), neigh_out, 1.0f, 0.0f, threads);
    pre[lu] = tensor::Matrix(n_dst, 2 * fo);
    tensor::concat_cols(self_out, neigh_out, pre[lu], threads);
    h[lu + 1] = tensor::Matrix(n_dst, 2 * fo);
    tensor::relu_forward(pre[lu], h[lu + 1], threads);
  }

  const std::size_t n_batch = batch.nodes.back().size();
  tensor::Matrix logits(n_batch, ds_.num_classes());
  tensor::gemm_nn(h[static_cast<std::size_t>(layers)], model_->w_cls(), logits,
                  1.0f, 0.0f, threads);
  tensor::add_bias_rows(logits,
                        {model_->bias_cls().data(), model_->bias_cls().cols()},
                        threads);
  tensor::Matrix labels(n_batch, ds_.num_classes());
  tensor::gather_rows(train_labels_, batch.nodes.back(), labels, threads);
  tensor::Matrix d_logits(n_batch, ds_.num_classes());
  const float loss = gcn::classification_loss(ds_.mode, logits, labels,
                                               d_logits, threads);

  tensor::gemm_tn(h[static_cast<std::size_t>(layers)], d_logits,
                  model_->grad_w_cls(), 1.0f, 0.0f, threads);
  tensor::bias_grad(d_logits, {model_->grad_bias_cls().data(),
                               model_->grad_bias_cls().cols()});
  tensor::Matrix d_h(n_batch, h[static_cast<std::size_t>(layers)].cols());
  tensor::gemm_nt(d_logits, model_->w_cls(), d_h, 1.0f, 0.0f, threads);

  for (int l = layers - 1; l >= 0; --l) {
    auto& conv = convs[static_cast<std::size_t>(l)];
    const auto lu = static_cast<std::size_t>(l);
    const std::size_t n_dst = batch.nodes[lu + 1].size();
    const std::size_t fo = conv.out_dim();

    tensor::Matrix d_pre(n_dst, 2 * fo);
    tensor::relu_backward(pre[lu], d_h, d_pre, threads);
    tensor::Matrix d_self(n_dst, fo), d_neigh(n_dst, fo);
    tensor::split_cols(d_pre, d_self, d_neigh, threads);

    tensor::Matrix h_self_in(n_dst, conv.in_dim());
    std::memcpy(h_self_in.data(), h[lu].data(),
                n_dst * conv.in_dim() * sizeof(float));
    tensor::gemm_tn(h_self_in, d_self, conv.grad_w_self(), 1.0f, 0.0f, threads);
    tensor::gemm_tn(agg[lu], d_neigh, conv.grad_w_neigh(), 1.0f, 0.0f, threads);

    tensor::Matrix d_agg(n_dst, conv.in_dim());
    tensor::gemm_nt(d_neigh, conv.w_neigh(), d_agg, 1.0f, 0.0f, threads);
    tensor::Matrix d_prev(batch.nodes[lu].size(), conv.in_dim());
    batch.blocks[lu].backward(d_agg, d_prev, threads);

    tensor::Matrix d_self_in(n_dst, conv.in_dim());
    tensor::gemm_nt(d_self, conv.w_self(), d_self_in, 1.0f, 0.0f, threads);
    for (std::size_t i = 0; i < n_dst; ++i) {
      float* dst = d_prev.row(i);
      const float* src = d_self_in.row(i);
      for (std::size_t j = 0; j < conv.in_dim(); ++j) dst[j] += src[j];
    }
    d_h = std::move(d_prev);
  }

  model_->apply_gradients(*opt_);
  return loss;
}

gcn::TrainResult FastGcnTrainer::train() {
  gcn::TrainResult result;
  const graph::Vid n_train = train_graph_.num_vertices();
  std::vector<graph::Vid> order(n_train);
  for (graph::Vid v = 0; v < n_train; ++v) order[v] = v;

  double train_time = 0.0;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    util::Timer timer;
    for (graph::Vid i = n_train; i > 1; --i) {
      std::swap(order[i - 1], order[rng_.below(i)]);
    }
    double loss_sum = 0.0;
    std::int64_t batches = 0;
    for (graph::Vid start = 0; start < n_train; start += cfg_.batch_size) {
      const graph::Vid end = std::min<graph::Vid>(start + cfg_.batch_size, n_train);
      std::vector<graph::Vid> verts(order.begin() + start, order.begin() + end);
      util::Timer sample_timer;
      FastGcnBatch batch = sample_batch(verts, rng_);
      result.sample_seconds += sample_timer.seconds();
      loss_sum += train_step(batch);
      ++batches;
      ++result.iterations;
    }
    const double epoch_seconds = timer.seconds();
    train_time += epoch_seconds;

    gcn::EpochRecord rec;
    rec.epoch = epoch;
    rec.train_loss = loss_sum / std::max<std::int64_t>(1, batches);
    rec.epoch_seconds = epoch_seconds;
    rec.cumulative_seconds = train_time;
    if (cfg_.eval_every_epoch) rec.val_f1 = evaluate(ds_.val_vertices);
    result.history.push_back(rec);
  }
  result.train_seconds = train_time;
  result.final_val_f1 = evaluate(ds_.val_vertices);
  result.final_test_f1 = evaluate(ds_.test_vertices);
  return result;
}

double FastGcnTrainer::evaluate(const std::vector<graph::Vid>& subset) {
  if (subset.empty()) return 0.0;
  const tensor::Matrix& logits =
      model_->forward(ds_.graph, ds_.features, cfg_.threads);
  gcn::ensure_shape(eval_pred_, logits.rows(), logits.cols());
  gcn::predict(ds_.mode, logits, eval_pred_);
  gcn::ensure_shape(subset_pred_, subset.size(), logits.cols());
  gcn::ensure_shape(subset_truth_, subset.size(), logits.cols());
  tensor::gather_rows(eval_pred_, subset, subset_pred_, cfg_.threads);
  tensor::gather_rows(ds_.labels, subset, subset_truth_, cfg_.threads);
  return gcn::f1_micro(subset_pred_, subset_truth_);
}

}  // namespace gsgcn::baselines
