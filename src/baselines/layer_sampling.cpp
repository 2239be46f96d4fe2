#include "baselines/layer_sampling.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "gcn/loss.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/timer.hpp"

namespace gsgcn::baselines {

namespace {

using obs::Dir;
using obs::Op;
using obs::PhaseScope;
using tensor::ConstMatrixView;
using tensor::Matrix;
using tensor::MatrixView;

// num_layers is checked by the GcnModel.
const LayerSamplingConfig& checked(const LayerSamplingConfig& cfg) {
  const bool sage = cfg.sampler == LayerSampler::kGraphSage;
  if ((sage ? cfg.fanout : cfg.layer_samples) == 0 || cfg.batch_size == 0) {
    throw std::invalid_argument("LayerSamplingTrainer: bad config");
  }
  return cfg;
}

/// The first `rows` rows of m: a layer's self input, by the prefix
/// property of the batch's node lists.
ConstMatrixView prefix_rows(const Matrix& m, std::size_t rows) {
  return ConstMatrixView::rows_slice(m, 0, rows);
}

/// One layer's source node list under construction: the destination
/// nodes first (the prefix, so the self path stays defined), then each
/// sampled node once.
struct SourceNodes {
  SourceNodes(const std::vector<graph::Vid>& dst, std::size_t expected)
      : ids(dst) {
    pos.reserve(expected);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      pos.emplace(ids[i], static_cast<std::uint32_t>(i));
    }
  }
  /// Position of u, appending it on first sight.
  std::uint32_t add(graph::Vid u) {
    const auto [it, inserted] =
        pos.emplace(u, static_cast<std::uint32_t>(ids.size()));
    if (inserted) ids.push_back(u);
    return it->second;
  }

  std::vector<graph::Vid> ids;
  std::unordered_map<graph::Vid, std::uint32_t> pos;
};

/// GraphSAGE: `fanout` neighbors of each dst node, drawn with replacement
/// (a repeat counts twice in the mean).
BipartiteBlock sample_neighbors(const graph::CsrGraph& g, graph::Vid fanout,
                                const std::vector<graph::Vid>& dst,
                                SourceNodes& src, util::Xoshiro256& rng) {
  std::vector<std::int64_t> offsets(dst.size() + 1, 0);
  std::vector<std::uint32_t> indices;
  indices.reserve(dst.size() * fanout);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const auto nbrs = g.neighbors(dst[i]);
    if (!nbrs.empty()) {
      for (graph::Vid k = 0; k < fanout; ++k) {
        indices.push_back(src.add(
            nbrs[rng.below(static_cast<std::uint32_t>(nbrs.size()))]));
      }
    }
    offsets[i + 1] = static_cast<std::int64_t>(indices.size());
  }
  return {src.ids.size(), std::move(offsets), std::move(indices)};
}

/// FastGCN: t nodes drawn i.i.d. from q, with edges v ← u for
/// u ∈ N(v) ∩ pool weighted by the unbiased mean estimator
/// mult(u) / (deg(v) · t · q(u)).
BipartiteBlock sample_importance(const graph::CsrGraph& g, graph::Vid t,
                                 const std::vector<double>& q,
                                 const std::vector<double>& q_cumsum,
                                 const std::vector<graph::Vid>& dst,
                                 SourceNodes& src, util::Xoshiro256& rng) {
  const graph::Vid n = g.num_vertices();
  // Inverse-CDF draws; count multiplicity (the estimator divides by t·q).
  std::unordered_map<graph::Vid, std::uint32_t> multiplicity;
  multiplicity.reserve(t);
  for (graph::Vid s = 0; s < t; ++s) {
    const double r = rng.uniform() * q_cumsum[n];
    const auto it = std::upper_bound(q_cumsum.begin(), q_cumsum.end(), r) - 1;
    const auto u = static_cast<graph::Vid>(std::min<std::ptrdiff_t>(
        it - q_cumsum.begin(), static_cast<std::ptrdiff_t>(n) - 1));
    ++multiplicity[u];
    src.add(u);
  }

  std::vector<std::int64_t> offsets(dst.size() + 1, 0);
  std::vector<std::uint32_t> indices;
  std::vector<float> weights;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const graph::Vid v = dst[i];
    const double dv = static_cast<double>(g.degree(v));
    for (const graph::Vid u : g.neighbors(v)) {
      const auto mit = multiplicity.find(u);
      if (mit == multiplicity.end()) continue;
      indices.push_back(src.pos.at(u));
      weights.push_back(static_cast<float>(static_cast<double>(mit->second) /
                                           (dv * static_cast<double>(t) * q[u])));
    }
    offsets[i + 1] = static_cast<std::int64_t>(indices.size());
  }
  return {src.ids.size(), std::move(offsets), std::move(indices),
          std::move(weights)};
}

}  // namespace

LayerSamplingTrainer::LayerSamplingTrainer(const data::Dataset& dataset,
                                           const LayerSamplingConfig& config)
    : cfg_(checked(config)), setup_(dataset, config), rng_(config.seed) {
  if (cfg_.sampler != LayerSampler::kFastGcn) return;
  // FastGCN pre-processing: degree-proportional importance distribution.
  const graph::CsrGraph& g = setup_.train_graph;
  const graph::Vid n = g.num_vertices();
  q_.resize(n);
  q_cumsum_.resize(n + 1, 0.0);
  const double total = std::max<double>(1.0, static_cast<double>(g.num_edges()));
  for (graph::Vid v = 0; v < n; ++v) {
    q_[v] = static_cast<double>(g.degree(v)) / total;
    q_cumsum_[v + 1] = q_cumsum_[v] + q_[v];
  }
}

LayerBatch LayerSamplingTrainer::sample_batch(
    const std::vector<graph::Vid>& batch_vertices,
    util::Xoshiro256& rng) const {
  PhaseScope scope(Op::kPop);
  const graph::CsrGraph& g = setup_.train_graph;
  const bool sage = cfg_.sampler == LayerSampler::kGraphSage;
  const auto layers = static_cast<std::size_t>(cfg_.num_layers);
  LayerBatch batch;
  batch.nodes.resize(layers + 1);
  batch.nodes[layers] = batch_vertices;
  // Top-down: nodes[ℓ-1] = nodes[ℓ] ++ the nodes sampled for them.
  for (std::size_t l = layers; l >= 1; --l) {
    const std::vector<graph::Vid>& dst = batch.nodes[l];
    SourceNodes src(dst, sage ? dst.size() * (cfg_.fanout + 1)
                              : dst.size() + cfg_.layer_samples);
    batch.blocks.insert(
        batch.blocks.begin(),
        sage ? sample_neighbors(g, cfg_.fanout, dst, src, rng)
             : sample_importance(g, cfg_.layer_samples, q_, q_cumsum_, dst,
                                 src, rng));
    batch.nodes[l - 1] = std::move(src.ids);
  }
  return batch;
}

float LayerSamplingTrainer::train_step(const LayerBatch& batch) {
  const auto layers = static_cast<std::size_t>(cfg_.num_layers);
  const int threads = setup_.cfg.threads;
  const auto head = static_cast<std::int64_t>(layers);
  gcn::GcnModel& model = setup_.model;
  auto& convs = model.layers();
  // Every buffer below is a member shaped by ensure_shape: its storage
  // outlives the step and grows only, and each op writes all it reads.
  using gcn::ensure_shape;

  // ---- forward ----
  // h_[ℓ] is layer ℓ's input over nodes[ℓ]; h_[ℓ+1] = σ(H_self ‖ H_neigh),
  // written by the two GEMMs with the ReLU fused into their store.
  h_.resize(layers + 1);
  agg_.resize(layers);
  const std::size_t n_batch = batch.nodes.back().size();
  const std::size_t classes = setup_.train_labels.cols();
  {
    PhaseScope scope(Op::kGather);
    ensure_shape(h_[0], batch.nodes[0].size(), setup_.train_features.cols());
    tensor::gather_rows(setup_.train_features, batch.nodes[0], h_[0], threads);
    ensure_shape(labels_, n_batch, classes);
    tensor::gather_rows(setup_.train_labels, batch.nodes.back(), labels_,
                        threads);
  }
  for (std::size_t l = 0; l < layers; ++l) {
    const gcn::GraphConvLayer& conv = convs[l];
    const auto li = static_cast<std::int64_t>(l);
    const std::size_t n_dst = batch.nodes[l + 1].size();
    const std::size_t fo = conv.out_dim();
    {
      PhaseScope scope(Op::kSpmm, Dir::kForward, li);
      ensure_shape(agg_[l], n_dst, conv.in_dim());
      batch.blocks[l].forward(h_[l], agg_[l], threads);
    }
    PhaseScope scope(Op::kGemm, Dir::kForward, li);
    ensure_shape(h_[l + 1], n_dst, 2 * fo);
    tensor::gemm_nn(prefix_rows(h_[l], n_dst), conv.w_self(),
                    MatrixView::cols_slice(h_[l + 1], 0, fo), 1.0f, 0.0f,
                    threads, tensor::Epilogue::kRelu);
    tensor::gemm_nn(agg_[l], conv.w_neigh(),
                    MatrixView::cols_slice(h_[l + 1], fo, fo), 1.0f, 0.0f,
                    threads, tensor::Epilogue::kRelu);
  }

  const Matrix& top = h_[layers];
  {
    PhaseScope scope(Op::kGemm, Dir::kForward, head);
    ensure_shape(logits_, n_batch, classes);
    tensor::gemm_nn(top, model.w_cls(), logits_, 1.0f, 0.0f, threads);
  }
  {
    PhaseScope scope(Op::kElementwise, Dir::kForward, head);
    tensor::add_bias_rows(logits_,
                          {model.bias_cls().data(), model.bias_cls().cols()},
                          threads);
  }
  const float loss = [&] {
    PhaseScope scope(Op::kLoss);
    ensure_shape(d_logits_, n_batch, classes);
    return gcn::classification_loss(setup_.ds.mode, logits_, labels_,
                                    d_logits_, threads);
  }();

  // ---- backward ----
  {
    PhaseScope scope(Op::kElementwise, Dir::kBackward, head);
    tensor::bias_grad(d_logits_, {model.grad_bias_cls().data(),
                                  model.grad_bias_cls().cols()});
  }
  {
    PhaseScope scope(Op::kGemm, Dir::kBackward, head);
    tensor::gemm_tn(top, d_logits_, model.grad_w_cls(), 1.0f, 0.0f, threads);
    ensure_shape(d_h_, n_batch, top.cols());
    tensor::gemm_nt(d_logits_, model.w_cls(), d_h_, 1.0f, 0.0f, threads);
  }

  for (std::size_t l = layers; l-- > 0;) {
    gcn::GraphConvLayer& conv = convs[l];
    const auto li = static_cast<std::int64_t>(l);
    const std::size_t n_dst = batch.nodes[l + 1].size();
    const std::size_t fo = conv.out_dim();
    const std::size_t in = conv.in_dim();

    // h_[ℓ+1] is post-ReLU, which carries the pre-activation's mask
    // (relu(x) > 0 ⇔ x > 0). d_pre_'s halves are read in place as views.
    {
      PhaseScope scope(Op::kElementwise, Dir::kBackward, li);
      ensure_shape(d_pre_, n_dst, 2 * fo);
      tensor::relu_backward(h_[l + 1], d_h_, d_pre_, threads);
    }
    const auto d_self = ConstMatrixView::cols_slice(d_pre_, 0, fo);
    const auto d_neigh = ConstMatrixView::cols_slice(d_pre_, fo, fo);
    {
      PhaseScope scope(Op::kGemm, Dir::kBackward, li);
      tensor::gemm_tn(prefix_rows(h_[l], n_dst), d_self, conv.grad_w_self(),
                      1.0f, 0.0f, threads);
      tensor::gemm_tn(agg_[l], d_neigh, conv.grad_w_neigh(), 1.0f, 0.0f,
                      threads);
      // The first layer's input is the feature matrix, whose gradient
      // nothing reads.
      if (l == 0) break;
      ensure_shape(d_agg_, n_dst, in);
      ensure_shape(d_self_in_, n_dst, in);
      tensor::gemm_nt(d_neigh, conv.w_neigh(), d_agg_, 1.0f, 0.0f, threads);
      tensor::gemm_nt(d_self, conv.w_self(), d_self_in_, 1.0f, 0.0f, threads);
    }
    {
      PhaseScope scope(Op::kSpmm, Dir::kBackward, li);
      ensure_shape(d_prev_, batch.nodes[l].size(), in);
      batch.blocks[l].backward(d_agg_, d_prev_, threads);
    }
    {
      // The self path feeds the prefix rows. A separate add, not a
      // beta = 1 GEMM into d_prev_: that would round differently once K
      // spans more than one Kc block.
      PhaseScope scope(Op::kElementwise, Dir::kBackward, li);
      for (std::size_t i = 0; i < n_dst; ++i) {
        float* dst = d_prev_.row(i);
        const float* src = d_self_in_.row(i);
        for (std::size_t j = 0; j < in; ++j) dst[j] += src[j];
      }
    }
    std::swap(d_h_, d_prev_);
  }

  PhaseScope scope(Op::kUpdate, Dir::kBackward);
  model.apply_gradients(setup_.opt);
  return loss;
}

gcn::TrainResult LayerSamplingTrainer::train() {
  gcn::TrainResult result;
  const graph::Vid n_train = setup_.train_graph.num_vertices();
  std::vector<graph::Vid> order(n_train);
  std::iota(order.begin(), order.end(), graph::Vid{0});

  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    util::Timer timer;
    const obs::Ledger ledger_before = obs::thread_ledger();
    // Shuffle and iterate batches.
    for (graph::Vid i = n_train; i > 1; --i) {
      std::swap(order[i - 1], order[rng_.below(i)]);
    }
    double loss_sum = 0.0;
    std::int64_t batches = 0;
    for (graph::Vid start = 0; start < n_train; start += cfg_.batch_size) {
      const graph::Vid end =
          std::min<graph::Vid>(start + cfg_.batch_size, n_train);
      loss_sum += train_step(
          sample_batch({order.begin() + start, order.begin() + end}, rng_));
      ++batches;
    }
    result.iterations += batches;
    setup_.end_epoch(result, loss_sum / std::max<std::int64_t>(1, batches),
                     timer.seconds(), obs::thread_ledger() - ledger_before);
  }
  result.sample_seconds = result.phases.op_seconds(Op::kPop);
  setup_.finish(result);
  return result;
}

}  // namespace gsgcn::baselines
