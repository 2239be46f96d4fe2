// Per-layer run shared by every workload: an untraced Trainer::train()
// (reference half), a traced replica of the same loop, and kernel / engine
// replays on the loop's own work units (traced half).
//
// The replica drives paper Algorithm 5 through exactly the public calls
// Trainer::train() makes — an identically configured SubgraphPool, the
// same feature store, GcnModel and Adam — so with the same seed its epoch
// losses are bit-equal to the Trainer's (reported as trace_fidelity). It
// uses only the 3-argument forward(g, x, threads) and backward(g, d,
// threads) overloads; dropout is 0, so these are the Trainer's numerics.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "gcn/loss.hpp"
#include "graph/subgraph.hpp"
#include "propagation/feature_partitioned.hpp"
#include "sampling/frontier_dashboard.hpp"
#include "sampling/pool.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace bench {
namespace {

using namespace gsgcn;

bool all_finite(const tensor::Matrix& m) {
  const float* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

struct LoopStats {
  std::int64_t iterations = 0;
  std::int64_t nonfinite = 0;
  double vertices = 0.0;      // summed over iterations
  double edges = 0.0;
  double gather_bytes = 0.0;  // computed bytes moved by the gathers
  double sample_ms_per_subgraph = 0.0;
  std::int64_t new_sizes = 0;  // iterations whose subgraph |V| was unseen
};

class Replica {
 public:
  Replica(const data::Dataset& ds, const gcn::TrainerConfig& cfg,
          const data::FeatureStore* ext)
      : ds_(ds), cfg_(cfg), ext_(ext) {
    if (cfg.sampler != gcn::SamplerKind::kFrontierDashboard ||
        cfg.feature_dtype != data::FeatureDtype::kF32 ||
        cfg.feature_cache_mb != 0 || cfg.dropout != 0.0f) {
      throw std::invalid_argument(
          "replica mirrors the frontier sampler, fp32 internal features and "
          "no dropout only");
    }
    // Mirrors Trainer's constructor step by step.
    graph::Inducer inducer(ds.graph);
    auto sub = inducer.induce(ds.train_vertices, std::max(1, cfg.threads));
    train_graph_ = std::move(sub.graph);
    train_orig_ = std::move(sub.orig_ids);
    train_labels_ = tensor::Matrix(train_orig_.size(), ds.num_classes());
    tensor::gather_rows(ds.labels, train_orig_, train_labels_);
    if (ext_ == nullptr) {
      train_features_ = tensor::Matrix(train_orig_.size(), ds.feature_dim());
      tensor::gather_rows(ds.features, train_orig_, train_features_);
      own_store_ = std::make_unique<data::FeatureStore>(
          data::FeatureStore::view(train_features_));
    }
    const graph::Vid n_train = train_graph_.num_vertices();
    budget_ = std::min<graph::Vid>(cfg.budget,
                                   std::max<graph::Vid>(n_train / 2, 2));
    frontier_ = std::min<graph::Vid>(cfg.frontier_size,
                                     std::max<graph::Vid>(budget_ / 4, 1));
    if (frontier_ >= budget_) frontier_ = budget_ - 1;

    gcn::ModelConfig mc;
    mc.in_dim = store().cols();
    mc.hidden_dim = cfg.hidden_dim;
    mc.num_classes = ds.num_classes();
    mc.num_layers = cfg.num_layers;
    mc.seed = cfg.seed;
    mc.aggregator = cfg.aggregator;
    model_ = std::make_unique<gcn::GcnModel>(mc);
    gcn::AdamConfig ac;
    ac.lr = cfg.lr;
    ac.grad_clip = cfg.grad_clip;
    opt_ = std::make_unique<gcn::Adam>(ac);
    model_->attach(*opt_);

    sampling::PoolOptions po;
    po.p_inter = std::max(1, cfg.p_inter);
    po.seed = cfg.seed;
    po.async = cfg.async_sampling;
    po.capacity = cfg.pool_capacity;
    pool_ = std::make_unique<sampling::SubgraphPool>(
        train_graph_, [this](int) { return make_sampler(); }, po);
    if (cfg.saint_loss_norm) {
      saint_ = std::make_unique<gcn::SaintNormalizer>(n_train);
      auto probe = make_sampler();
      util::Xoshiro256 rng = util::Xoshiro256::stream(cfg.seed, 0x5a17);
      saint_->estimate(*probe, rng, cfg.saint_presamples);
    }
  }

  const data::FeatureStore& store() const {
    return ext_ != nullptr ? *ext_ : *own_store_;
  }
  std::size_t in_dim() const { return store().cols(); }
  gcn::GcnModel& model() { return *model_; }

  /// Algorithm 5 for `epochs` epochs; returns the epoch mean losses.
  std::vector<double> run(int epochs, Spans& log, LoopStats& st) {
    pool_->reset_accounting();
    pool_->start_async();
    pool_->prefill();
    const auto iters_per_epoch = std::max<std::int64_t>(
        1, train_graph_.num_vertices() /
               std::max<graph::Vid>(budget_, 1));
    const std::size_t classes = ds_.num_classes();
    std::vector<double> losses;
    std::int64_t iter = 0;
    for (int e = 0; e < epochs; ++e) {
      Scope epoch_span(log, "epoch", e);
      double loss_sum = 0.0;
      for (std::int64_t it = 0; it < iters_per_epoch; ++it, ++iter) {
        Scope iter_span(log, "iteration", iter);
        graph::Subgraph sub;
        {
          Scope s(log, "sampling.pop", iter);
          sub = pool_->pop();
        }
        const graph::Vid n = sub.num_vertices();
        // The propagation autotuner caches its pick per exact |V|; a size
        // never seen before is a cold call.
        if (seen_sizes_.insert(n).second) ++st.new_sizes;
        st.vertices += n;
        st.edges += static_cast<double>(sub.graph.num_edges());
        {
          Scope s(log, "data.gather", iter);
          gather(sub, batch_features_, cfg_.threads);
          gcn::ensure_shape(batch_labels_, n, classes);
          tensor::gather_rows(train_labels_, sub.orig_ids, batch_labels_,
                              cfg_.threads);
        }
        st.gather_bytes += static_cast<double>(n) *
                           (static_cast<double>(in_dim()) *
                                (static_cast<double>(store().value_bytes()) + 4.0) +
                            static_cast<double>(classes) * 8.0);
        if (ext_ != nullptr && ext_->mmapped()) {
          Scope s(log, "data.prefetch", iter);
          const std::vector<graph::Vid> next = pool_->peek_next_orig_ids();
          if (!next.empty()) {
            prefetch_ids_.resize(next.size());
            for (std::size_t i = 0; i < next.size(); ++i) {
              prefetch_ids_[i] = train_orig_[next[i]];
            }
            ext_->prefetch(prefetch_ids_);
          }
        }
        const tensor::Matrix* logits = nullptr;
        {
          Scope s(log, "gcn.forward", iter);
          logits = &model_->forward(sub.graph, batch_features_, cfg_.threads);
        }
        gcn::ensure_shape(d_logits_, n, classes);
        double loss = 0.0;
        {
          Scope s(log, "gcn.loss", iter);
          if (saint_ != nullptr) {
            const std::vector<float> w = saint_->batch_weights(sub.orig_ids);
            loss = gcn::classification_loss_weighted(ds_.mode, *logits,
                                                     batch_labels_, w, d_logits_);
          } else {
            loss = gcn::classification_loss(ds_.mode, *logits, batch_labels_,
                                             d_logits_);
          }
        }
        loss_sum += loss;
        {
          Scope s(log, "train.guard", iter);
          if (!std::isfinite(loss) || !all_finite(*logits) ||
              !all_finite(d_logits_)) {
            ++st.nonfinite;
          }
        }
        {
          Scope s(log, "gcn.backward", iter);
          model_->backward(sub.graph, d_logits_, cfg_.threads);
        }
        {
          Scope s(log, "gcn.update", iter);
          model_->apply_gradients(*opt_);
        }
        ++st.iterations;
        last_sub_ = std::move(sub);
      }
      losses.push_back(loss_sum / static_cast<double>(iters_per_epoch));
    }
    const double sample_s = pool_->sampling_seconds();
    pool_->stop_async();
    // Subgraphs produced in the window: those consumed plus the ones the
    // producer left queued (each refill batch is timed as one interval).
    const double produced = static_cast<double>(st.iterations) +
                            static_cast<double>(pool_->available());
    st.sample_ms_per_subgraph = produced > 0 ? 1e3 * sample_s / produced : 0.0;
    return losses;
  }

  /// A subgraph from the same pool whose vertex count the loop never saw,
  /// so any per-shape cache keyed on it is cold. Null after 64 misses.
  std::unique_ptr<graph::Subgraph> pop_fresh() {
    for (int tries = 0; tries < 64; ++tries) {
      auto sub = std::make_unique<graph::Subgraph>(pool_->pop());
      if (seen_sizes_.insert(sub->num_vertices()).second) return sub;
    }
    return nullptr;
  }

  void gather(const graph::Subgraph& sub, tensor::Matrix& out, int threads) {
    gcn::ensure_shape(out, sub.num_vertices(), in_dim());
    if (ext_ != nullptr) {
      // External stores are keyed by dataset ids.
      batch_ids_.resize(sub.num_vertices());
      for (graph::Vid i = 0; i < sub.num_vertices(); ++i) {
        batch_ids_[i] = train_orig_[sub.orig_ids[i]];
      }
      ext_->gather(batch_ids_, out, threads);
    } else {
      own_store_->gather(sub.orig_ids, out, threads);
    }
  }

  const graph::Subgraph& last_subgraph() const { return last_sub_; }

 private:
  std::unique_ptr<sampling::VertexSampler> make_sampler() const {
    sampling::FrontierParams fp;
    fp.frontier_size = frontier_;
    fp.budget = budget_;
    fp.eta = cfg_.eta;
    fp.degree_cap = cfg_.degree_cap;
    return std::make_unique<sampling::DashboardFrontierSampler>(train_graph_,
                                                                fp, cfg_.intra);
  }

  const data::Dataset& ds_;
  gcn::TrainerConfig cfg_;
  const data::FeatureStore* ext_;
  graph::CsrGraph train_graph_;
  std::vector<graph::Vid> train_orig_;
  tensor::Matrix train_features_;
  tensor::Matrix train_labels_;
  std::unique_ptr<data::FeatureStore> own_store_;
  graph::Vid budget_ = 0;
  graph::Vid frontier_ = 0;
  std::unique_ptr<gcn::GcnModel> model_;
  std::unique_ptr<gcn::Adam> opt_;
  std::unique_ptr<sampling::SubgraphPool> pool_;
  std::unique_ptr<gcn::SaintNormalizer> saint_;
  tensor::Matrix batch_features_;
  tensor::Matrix batch_labels_;
  tensor::Matrix d_logits_;
  std::vector<std::uint32_t> batch_ids_;
  std::vector<std::uint32_t> prefetch_ids_;
  std::set<graph::Vid> seen_sizes_;
  graph::Subgraph last_sub_;
};

template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0) * 1e3;
}

template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> ts;
  for (int r = 0; r < reps; ++r) ts.push_back(time_ms(f));
  return median(ts);
}

/// propagate_feature_partitioned{,_backward} at the input width: the first
/// call on a never-seen subgraph shape (autotuner cold) against repeated
/// calls on the same shape.
void replay_propagation(Replica& rep, const gcn::TrainerConfig& cfg,
                        Report& report, int shapes) {
  propagation::FeaturePartitionOptions opts;
  opts.threads = cfg.threads;
  opts.aggregator = cfg.aggregator;
  std::vector<double> first, repeat, gbps;
  tensor::Matrix x, out;
  for (int s = 0; s < shapes; ++s) {
    const auto sub = rep.pop_fresh();
    if (sub == nullptr) break;
    rep.gather(*sub, x, cfg.threads);
    out = tensor::Matrix(x.rows(), x.cols());
    const auto call = [&] {
      propagation::propagate_feature_partitioned(sub->graph, x, out, opts);
      propagation::propagate_feature_partitioned_backward(sub->graph, x, out,
                                                          opts);
    };
    first.push_back(time_ms(call));
    const double rep_ms = median_ms(5, call);
    repeat.push_back(rep_ms);
    // Compulsory traffic of the two passes (roofline spmm model).
    const double n = sub->num_vertices();
    const double e = static_cast<double>(sub->graph.num_edges());
    const double f = static_cast<double>(x.cols());
    gbps.push_back(2.0 * 4.0 * (2.0 * n * f + e + n) / (rep_ms * 1e-3) / 1e9);
  }
  report.metric("propagation.spmm_first_ms", median(first), "ms");
  report.metric("propagation.spmm_repeat_ms", median(repeat), "ms");
  report.metric("propagation.spmm_gbps", median(gbps), "GB/s");
  report.info("propagation.fresh_shapes", static_cast<double>(first.size()));
}

/// The three GEMM orientations at the loop's (n_sub, width, hidden) shape,
/// width being the widest layer input.
void replay_gemm(Replica& rep, const gcn::TrainerConfig& cfg, Report& report,
                 std::uint64_t seed) {
  const std::size_t n = std::max<std::size_t>(rep.last_subgraph().num_vertices(), 1);
  const std::size_t width = std::max(rep.in_dim(), 2 * cfg.hidden_dim);
  const std::size_t h = cfg.hidden_dim;
  util::Xoshiro256 rng(seed ^ 0x6e3a);
  const tensor::Matrix a = tensor::Matrix::gaussian(n, width, 1.0f, rng);
  const tensor::Matrix b = tensor::Matrix::gaussian(width, h, 1.0f, rng);
  tensor::Matrix c = tensor::Matrix::gaussian(n, h, 1.0f, rng);
  tensor::Matrix w(width, h);
  tensor::Matrix a2(n, width);
  const double flops = 2.0 * static_cast<double>(n) * width * h;
  const auto gflops = [&](auto&& call) {
    call();  // warm the packing workspaces
    return flops / (median_ms(5, call) * 1e-3) / 1e9;
  };
  report.metric("tensor.gemm_nn_gflops", gflops([&] {
    tensor::gemm_nn(a, b, c, 1.0f, 0.0f, cfg.threads);
  }), "GFLOP/s");
  report.metric("tensor.gemm_tn_gflops", gflops([&] {
    tensor::gemm_tn(a, c, w, 1.0f, 0.0f, cfg.threads);
  }), "GFLOP/s");
  report.metric("tensor.gemm_nt_gflops", gflops([&] {
    tensor::gemm_nt(c, b, a2, 1.0f, 0.0f, cfg.threads);
  }), "GFLOP/s");
  report.info("tensor.shape_n", static_cast<double>(n));
  report.info("tensor.shape_width", static_cast<double>(width));
}

/// InferenceEngine::run_batch on the workload's requests, one request per
/// batch (at the serving workload's rates most batches hold one), served by
/// the loop's trained model: the first call on a request (cold closure
/// shape) and repeats of it. Plus the client-side protocol work of each
/// request: request encode + frame, response frame decode + decode.
void replay_engine(const LayerTrace& in, gcn::GcnModel& trained,
                   Report& report) {
  std::stringstream weights;
  trained.save(weights);
  const serve::ModelSnapshot snap(1, -1, gcn::GcnModel::load(weights));
  serve::InferenceEngine engine(in.ds->graph, *in.serve_store);
  std::vector<double> first, repeat, closure, protocol_us;
  std::vector<serve::Response> responses;
  std::vector<serve::Ticket> batch(1);
  // Up to 16 requests, but stop after about 2 s: a 3-hop closure on
  // train-deep spans nearly the whole graph (~0.75 s per call).
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < in.requests.size() && i < 16 &&
                          (i == 0 || seconds_since(t0) < 2.0);
       ++i) {
    serve::Request& req = batch[0].request;
    req.request_id = i + 1;
    req.vertices.assign(in.requests[i].begin(), in.requests[i].end());
    const auto call = [&] {
      responses.clear();
      engine.run_batch(snap, batch, responses, in.engine_threads);
    };
    first.push_back(time_ms(call));
    repeat.push_back(median_ms(3, call));
    closure.push_back(static_cast<double>(engine.last_closure_size()));

    const std::string resp_frame = util::frame_encode(
        serve::kWireFrame, serve::encode_response(responses.front()));
    constexpr int kReps = 20;
    const double ms = time_ms([&] {
      for (int r = 0; r < kReps; ++r) {
        const std::string req_frame =
            util::frame_encode(serve::kWireFrame, serve::encode_request(req));
        std::string payload;
        std::size_t consumed = 0;
        serve::Response decoded;
        std::string err;
        if (req_frame.empty() ||
            util::frame_try_decode(serve::kWireFrame, resp_frame.data(),
                                   resp_frame.size(), payload, consumed) !=
                util::FrameStatus::kOk ||
            !serve::decode_response(payload, decoded, err)) {
          throw std::runtime_error("protocol replay: decode failed");
        }
      }
    });
    protocol_us.push_back(ms * 1e3 / kReps);
  }
  report.metric("serve.engine_first_ms", median(first), "ms");
  report.metric("serve.engine_repeat_ms", median(repeat), "ms");
  report.metric("serve.closure_vertices", median(closure), "count");
  report.metric("serve.protocol_us", median(protocol_us), "us");
}

double mean_ms(const Spans& log, const std::string& name, std::int64_t iters) {
  return iters > 0 ? log.total_ms(name) / static_cast<double>(iters) : 0.0;
}

}  // namespace

void reference_layers(const LayerTrace& in, Report& report) {
  gcn::Trainer trainer(*in.ds, in.cfg, in.train_store);
  const auto t0 = Clock::now();
  const gcn::TrainResult r = trainer.train();
  const double ips = static_cast<double>(r.iterations) / seconds_since(t0);
  std::vector<double> losses;
  for (const auto& rec : r.history) losses.push_back(rec.train_loss);
  report.check("losses_finite", all_finite(losses));
  report.count_attempted(r.iterations);
  report.count_failed(r.guard_trips + r.rollbacks);
  report.metric("iters_per_s", ips, "1/s");
  report.series("epoch_loss", std::move(losses));
}

void trace_layers(const LayerTrace& in, Report& report) {
  Replica rep(*in.ds, in.cfg, in.train_store);
  Spans log;
  LoopStats st;
  const auto t0 = Clock::now();
  std::vector<double> losses = rep.run(in.cfg.epochs, log, st);
  const double traced_ips = static_cast<double>(st.iterations) / seconds_since(t0);
  report.count_attempted(st.iterations);
  report.count_failed(st.nonfinite);
  report.check("losses_finite", all_finite(losses));
  report.metric("iters_per_s", traced_ips, "1/s");
  report.series("epoch_loss", std::move(losses));

  const std::int64_t iters = st.iterations;
  report.metric("sampling.pop_ms", mean_ms(log, "sampling.pop", iters), "ms");
  report.metric("sampling.sample_ms", st.sample_ms_per_subgraph, "ms");
  report.metric("sampling.subgraph_vertices", st.vertices / std::max<std::int64_t>(iters, 1), "count");
  report.metric("sampling.subgraph_edges", st.edges / std::max<std::int64_t>(iters, 1), "count");
  report.metric("propagation.new_shape_share",
                static_cast<double>(st.new_sizes) /
                    static_cast<double>(std::max<std::int64_t>(iters, 1)),
                "ratio");
  const double gather_ms = mean_ms(log, "data.gather", iters);
  report.metric("data.gather_ms", gather_ms, "ms");
  report.metric("data.gather_gbps",
                st.gather_bytes / std::max<std::int64_t>(iters, 1) /
                    (gather_ms * 1e-3) / 1e9,
                "GB/s");
  report.metric("gcn.forward_ms", mean_ms(log, "gcn.forward", iters), "ms");
  report.metric("gcn.loss_ms", mean_ms(log, "gcn.loss", iters), "ms");
  report.metric("gcn.backward_ms", mean_ms(log, "gcn.backward", iters), "ms");
  report.metric("gcn.update_ms", mean_ms(log, "gcn.update", iters), "ms");
  const double iteration_ms = mean_ms(log, "iteration", iters);
  report.metric("iteration_ms", iteration_ms, "ms");
  const std::map<std::string, double> self = log.self_ms();
  const double iter_total = iteration_ms * static_cast<double>(iters);
  const double unattributed =
      iter_total > 0 ? self.at("iteration") / iter_total : 0.0;
  report.metric("unattributed_share", unattributed, "ratio");
  report.check("spans_cover_95pct_of_iteration", unattributed <= 0.05);
  for (const auto& [name, ms] : self) report.info("self_ms." + name, ms);
  if (!in.chrome_path.empty() && !write_file(in.chrome_path, log.chrome_json())) {
    throw std::runtime_error("cannot write trace " + in.chrome_path);
  }

  // Replays after the timed loop, on the loop's own pool and model.
  replay_propagation(rep, in.cfg, report, 3);
  replay_gemm(rep, in.cfg, report, in.cfg.seed);
  replay_engine(in, rep.model(), report);
}

}  // namespace bench
