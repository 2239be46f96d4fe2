#include "gcn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "gcn/checkpoint.hpp"
#include "gcn/inference.hpp"
#include "gcn/loss.hpp"
#include "graph/reorder.hpp"
#include "graph/subgraph.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/phase.hpp"
#include "obs/roofline.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sampling/frontier_dashboard.hpp"
#include "sampling/samplers.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/json_writer.hpp"
#include "util/timer.hpp"

namespace gsgcn::gcn {

const char* sampler_kind_name(SamplerKind kind) {
  // Exhaustive: -Wswitch flags any SamplerKind added without a name here.
  switch (kind) {
    case SamplerKind::kFrontierDashboard: return "frontier-dashboard";
    case SamplerKind::kFrontierNaive: return "frontier-naive";
    case SamplerKind::kUniformNode: return "uniform-node";
    case SamplerKind::kRandomEdge: return "random-edge";
    case SamplerKind::kRandomWalk: return "random-walk";
    case SamplerKind::kForestFire: return "forest-fire";
    case SamplerKind::kSnowball: return "snowball";
  }
  std::abort();  // unreachable for in-range enum values
}

namespace {

// Divergence-guard scan. The GSGCN_CHECK_* invariants compile out of
// Release builds, so the guard carries its own check: one linear pass per
// tensor per iteration, trivial next to the layer GEMMs that produced it.
bool all_finite(const float* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

}  // namespace

Trainer::Trainer(const data::Dataset& dataset, const TrainerConfig& config,
                 const data::FeatureStore* dataset_features)
    : ds_(dataset), cfg_(config), ext_features_(dataset_features) {
  const std::string err = ds_.validate();
  if (!err.empty()) throw std::invalid_argument("Trainer: bad dataset: " + err);

  const bool external = ext_features_ != nullptr;
  if (external) {
    if (ext_features_->rows() != ds_.graph.num_vertices()) {
      throw std::invalid_argument(
          "Trainer: feature store has " +
          std::to_string(ext_features_->rows()) + " rows but the graph has " +
          std::to_string(ds_.graph.num_vertices()) + " vertices");
    }
    if (!ds_.features.empty() &&
        ds_.features.cols() != ext_features_->cols()) {
      throw std::invalid_argument(
          "Trainer: feature store width disagrees with dataset features");
    }
    in_dim_ = ext_features_->cols();
  } else {
    if (ds_.features.empty()) {
      throw std::invalid_argument(
          "Trainer: dataset has no dense features; pass a FeatureStore");
    }
    in_dim_ = ds_.feature_dim();
  }
  // Full-graph inference (every evaluation flavor) reads dense features.
  if (ds_.features.empty() &&
      (cfg_.eval_every_epoch || cfg_.early_stop_patience > 0 ||
       cfg_.restore_best || cfg_.final_eval)) {
    throw std::invalid_argument(
        "Trainer: evaluation needs dense dataset features; disable "
        "eval_every_epoch/early_stop/restore_best/final_eval for "
        "out-of-core runs");
  }

  // Build the training graph once (inductive setup).
  graph::Inducer inducer(ds_.graph);
  auto sub = inducer.induce(ds_.train_vertices, std::max(1, cfg_.threads));
  train_graph_ = std::move(sub.graph);
  train_orig_ = std::move(sub.orig_ids);

  if (!external) {
    // The internal store is keyed by dataset ids like an external one, so
    // fp32 with no cache is a zero-copy view of ds_.features. Any codec or
    // cache budget builds a compressed store over ds_.features, with cache
    // residency ranked by training-graph degree and int8 scales taken
    // from the training rows alone: training rows decode exactly as a
    // store built over the training split alone would decode them, and
    // held-out statistics never shape a training input.
    if (cfg_.feature_dtype == data::FeatureDtype::kF32 &&
        cfg_.feature_cache_mb == 0) {
      feat_store_ = std::make_unique<data::FeatureStore>(
          data::FeatureStore::view(ds_.features));
    } else {
      data::FeatureStoreOptions fo;
      fo.dtype = cfg_.feature_dtype;
      fo.cache_mb = cfg_.feature_cache_mb;
      std::vector<graph::Vid> hot = graph::degree_order(train_graph_);
      for (graph::Vid& v : hot) v = train_orig_[v];
      feat_store_ = std::make_unique<data::FeatureStore>(
          data::FeatureStore::build(ds_.features, fo, hot, train_orig_));
    }
  }

  // Clamp sampler parameters to the training-graph size: budget at most
  // |V_train|, frontier below budget.
  const graph::Vid n_train = train_graph_.num_vertices();
  budget_ = std::min<graph::Vid>(cfg_.budget, std::max<graph::Vid>(n_train / 2, 2));
  frontier_ = std::min<graph::Vid>(cfg_.frontier_size,
                                   std::max<graph::Vid>(budget_ / 4, 1));
  if (frontier_ >= budget_) frontier_ = budget_ - 1;

  ModelConfig mc;
  mc.in_dim = in_dim_;
  mc.hidden_dim = cfg_.hidden_dim;
  mc.num_classes = ds_.num_classes();
  mc.num_layers = cfg_.num_layers;
  mc.seed = cfg_.seed;
  mc.aggregator = cfg_.aggregator;
  mc.dropout = cfg_.dropout;
  model_ = std::make_unique<GcnModel>(mc);

  AdamConfig ac;
  ac.lr = cfg_.lr;
  ac.grad_clip = cfg_.grad_clip;
  opt_ = std::make_unique<Adam>(ac);
  model_->attach(*opt_);

  sampling::PoolOptions pool_opt;
  pool_opt.p_inter = std::max(1, cfg_.p_inter);
  pool_opt.seed = cfg_.seed;
  pool_opt.async = cfg_.async_sampling;
  pool_opt.capacity = cfg_.pool_capacity;
  pool_ = std::make_unique<sampling::SubgraphPool>(
      train_graph_, [this](int i) { return make_sampler(i); }, pool_opt);

  if (cfg_.saint_loss_norm) {
    saint_ = std::make_unique<SaintNormalizer>(train_graph_.num_vertices());
    // A dedicated sampler instance + RNG stream keeps the training-time
    // sample sequence identical with/without normalization.
    auto probe = make_sampler(-1);
    util::Xoshiro256 rng = util::Xoshiro256::stream(cfg_.seed, 0x5a17);
    saint_->estimate(*probe, rng, cfg_.saint_presamples);
  }
}

std::unique_ptr<sampling::VertexSampler> Trainer::make_sampler(
    int /*instance*/) const {
  sampling::FrontierParams fp;
  fp.frontier_size = frontier_;
  fp.budget = budget_;
  fp.eta = cfg_.eta;
  fp.degree_cap = cfg_.degree_cap;
  switch (cfg_.sampler) {
    case SamplerKind::kFrontierDashboard:
      return std::make_unique<sampling::DashboardFrontierSampler>(train_graph_,
                                                                  fp, cfg_.intra);
    case SamplerKind::kFrontierNaive:
      return std::make_unique<sampling::NaiveFrontierSampler>(train_graph_, fp);
    case SamplerKind::kUniformNode:
      return std::make_unique<sampling::UniformNodeSampler>(train_graph_, budget_);
    case SamplerKind::kRandomEdge:
      return std::make_unique<sampling::RandomEdgeSampler>(train_graph_, budget_);
    case SamplerKind::kRandomWalk: {
      // roots·(len+1) ≈ budget with GraphSAINT-ish walk length 4.
      const graph::Vid len = 4;
      const graph::Vid roots = std::max<graph::Vid>(1, budget_ / (len + 1));
      return std::make_unique<sampling::RandomWalkSampler>(train_graph_, roots, len);
    }
    case SamplerKind::kForestFire:
      return std::make_unique<sampling::ForestFireSampler>(train_graph_, budget_);
    case SamplerKind::kSnowball:
      return std::make_unique<sampling::SnowballSampler>(train_graph_, budget_);
  }
  throw std::logic_error("unknown sampler kind");
}

TrainResult Trainer::train() {
  TrainResult result;
  pool_->reset_accounting();

  std::unique_ptr<CheckpointManager> mgr;
  if (!cfg_.checkpoint_dir.empty()) {
    mgr = std::make_unique<CheckpointManager>(cfg_.checkpoint_dir);
  }

  const std::int64_t iters_per_epoch = std::max<std::int64_t>(
      1, train_graph_.num_vertices() / std::max<graph::Vid>(budget_, 1));

  const bool eval_epochs = cfg_.eval_every_epoch ||
                           cfg_.early_stop_patience > 0 || cfg_.restore_best;
  double best_val = -1.0;
  std::vector<tensor::Matrix> best_weights;
  int stale_epochs = 0;
  double train_time = 0.0;
  double sampler_wait = 0.0;
  // Kept epochs' wall time and phase-ledger delta on this thread; the
  // difference is the unattributed remainder.
  double kept_wall = 0.0;
  obs::Ledger kept;
  float lr = cfg_.lr;
  int epoch = 0;
  int retries_used = 0;         // shared rollback budget, whole run
  int divergence_backoffs = 0;  // lr-backoff exponent since the last anchor

  // Resume: restore the newest valid checkpoint, then seek the pool to the
  // consumed-slot cursor so the subgraph sequence continues exactly where
  // the checkpointed run left off (slot k always draws from RNG stream
  // (seed, k), independent of p_inter or sync/async mode).
  if (cfg_.resume && mgr != nullptr) {
    std::string payload;
    int ck_epoch = -1;
    if (mgr->load_latest(payload, &ck_epoch)) {
      const CheckpointCursors c = decode_checkpoint(payload, *model_, *opt_);
      epoch = c.next_epoch;
      result.iterations = c.iterations;
      lr = c.lr;
      opt_->set_lr(lr);
      best_val = c.best_val;
      stale_epochs = c.stale_epochs;
      result.history = c.history;
      if (!result.history.empty()) {
        train_time = result.history.back().cumulative_seconds;
      }
      pool_->seek(c.pool_slot);
      result.resumed_from_epoch = epoch;
      GSGCN_COUNTER_INC("ckpt.restored");
      // Re-emit the restored records so the telemetry stream carries the
      // complete per-epoch sequence, not just the post-resume suffix —
      // downstream consumers can diff a resumed run against an
      // uninterrupted one line by line.
      for (const EpochRecord& rec : result.history) emit_epoch_record(rec);
    }
  }

  // Start (or restart, on a repeated train() call) the producer and take
  // the unavoidable first fill off the timed path: it is a cold start,
  // not a starvation stall, so `pool.stalls` measures only genuine
  // starvation during training.
  pool_->start_async();
  pool_->prefill();

  // The encoded checkpoint payload doubles as the guard's in-memory
  // rollback anchor, refreshed after every healthy epoch. Taking it before
  // epoch 0 (or right after a resume) means recovery works even with no
  // checkpoint_dir at all. Encoding is one serialization of the model +
  // optimizer per epoch — small next to an epoch of GEMMs.
  auto snapshot = [&]() {
    CheckpointCursors c;
    c.next_epoch = epoch;
    c.iterations = result.iterations;
    c.lr = lr;
    c.best_val = best_val;
    c.stale_epochs = stale_epochs;
    c.pool_slot = pool_->consumed();
    c.history = result.history;
    return encode_checkpoint(c, *model_, *opt_);
  };
  std::string last_good = snapshot();

  // Restore the anchor. For numeric divergence the learning rate is the
  // prime suspect, so it is backed off multiplicatively — compounding
  // across consecutive failed retries of the same epoch. Transient
  // sampler/pool faults skip the backoff: replaying the epoch with the
  // anchor's lr keeps the run bit-identical to an uninterrupted one.
  auto rollback = [&](bool lr_at_fault) {
    ++result.rollbacks;
    GSGCN_COUNTER_INC("guard.rollbacks");
    const CheckpointCursors c = decode_checkpoint(last_good, *model_, *opt_);
    epoch = c.next_epoch;
    result.iterations = c.iterations;
    best_val = c.best_val;
    stale_epochs = c.stale_epochs;
    result.history = c.history;
    lr = c.lr;
    if (lr_at_fault) {
      ++divergence_backoffs;
      for (int i = 0; i < divergence_backoffs; ++i) {
        lr *= cfg_.guard_lr_backoff;
      }
    }
    opt_->set_lr(lr);
    pool_->seek(c.pool_slot);
    pool_->start_async();
    pool_->prefill();
  };

  while (epoch < cfg_.epochs) {
    GSGCN_TRACE_SPAN_ID("train/epoch", epoch);
    util::Timer epoch_timer;
    // Pop wait (cv blocks in async mode, inline refills in sync mode) is
    // accounted by the pool; the delta over this epoch is subtracted from
    // the epoch wall time so train_seconds is pure compute — previously
    // inline refill time was double-counted into both train_seconds and
    // sample_seconds.
    const double wait_before = pool_->pop_wait_seconds();
    const obs::Ledger ledger_before = obs::thread_ledger();
    double loss_sum = 0.0;
    const char* trip = nullptr;  // non-null: this epoch must be discarded
    bool lr_at_fault = false;    // divergence vs transient infra fault
    std::string trip_what;
    try {
      // Reassigned by each pop, which frees the previous batch's
      // subgraph inside the pop scope.
      graph::Subgraph sub;
      for (std::int64_t it = 0; it < iters_per_epoch; ++it) {
        GSGCN_TRACE_SPAN("train/iteration");
        {
          obs::PhaseScope scope(obs::Op::kPop);
          sub = pool_->pop();
        }
        const graph::Vid n_sub = sub.num_vertices();
        GSGCN_ASSERT(n_sub > 0, "pool produced an empty subgraph");
        GSGCN_ASSERT(sub.orig_ids.size() == n_sub,
                     "subgraph id map size disagrees with its CSR");

        {
          const data::FeatureStore& fstore = *feature_store();
          // The roofline work model learns the codec: a compressed row
          // reads value_bytes() per value, and every gather writes fp32.
          const obs::Work fwork = obs::gather_work(
              static_cast<std::int64_t>(n_sub),
              static_cast<std::int64_t>(in_dim_),
              static_cast<double>(fstore.value_bytes()));
          const obs::Work lwork = obs::gather_work(
              static_cast<std::int64_t>(n_sub),
              static_cast<std::int64_t>(ds_.num_classes()));
          obs::PhaseScope scope(obs::Op::kGather, obs::Dir::kForward, -1,
                                {fwork.flops + lwork.flops,
                                 fwork.bytes + lwork.bytes});
          ensure_shape(batch_features_, n_sub, in_dim_);
          ensure_shape(batch_labels_, n_sub, ds_.num_classes());
          // Stores and labels are keyed by dataset ids; translate the
          // train-local subgraph ids through train_orig_.
          batch_ids_.resize(n_sub);
          for (graph::Vid i = 0; i < n_sub; ++i) {
            batch_ids_[i] = train_orig_[sub.orig_ids[i]];
          }
          fstore.gather(batch_ids_, batch_features_, cfg_.threads);
          tensor::gather_rows(ds_.labels, batch_ids_, batch_labels_,
                              cfg_.threads);
          if (fstore.mmapped()) {
            // Out-of-core lookahead: hint the pages behind the subgraph
            // the pool will hand us next, so the page cache fills while
            // this iteration computes.
            const std::vector<graph::Vid> next = pool_->peek_next_orig_ids();
            if (!next.empty()) {
              prefetch_ids_.resize(next.size());
              for (std::size_t i = 0; i < next.size(); ++i) {
                prefetch_ids_[i] = train_orig_[next[i]];
              }
              fstore.prefetch(prefetch_ids_);
            }
          }
        }

        const tensor::Matrix& logits = model_->forward(
            sub.graph, batch_features_, cfg_.threads, /*training=*/true);
        double iter_loss = 0.0;
        bool poisoned = false;
        {
          // The loss phase includes the divergence guard's scan of the
          // logits and of the loss gradient.
          obs::PhaseScope scope(obs::Op::kLoss);
          GSGCN_CHECK_FINITE_RANGE(logits.data(), logits.size(),
                                   "training logits");
          ensure_shape(d_logits_, n_sub, ds_.num_classes());
          if (saint_ != nullptr) {
            const std::vector<float> w = saint_->batch_weights(sub.orig_ids);
            iter_loss = classification_loss_weighted(
                ds_.mode, logits, batch_labels_, w, d_logits_, cfg_.threads);
          } else {
            iter_loss = classification_loss(ds_.mode, logits, batch_labels_,
                                            d_logits_, cfg_.threads);
          }
          // Report-kind fault site: poisons the observed loss so tests and
          // CI can trip the guard on demand without real numeric blowup.
          if (util::fault_point("trainer.poison_loss")) {
            iter_loss = std::numeric_limits<double>::quiet_NaN();
          }
          GSGCN_CHECK_FINITE_RANGE(d_logits_.data(), d_logits_.size(),
                                   "loss gradient");
          poisoned = cfg_.guard &&
                     (!std::isfinite(iter_loss) ||
                      !all_finite(logits.data(), logits.size()) ||
                      !all_finite(d_logits_.data(), d_logits_.size()));
        }
        loss_sum += iter_loss;
        if (poisoned) {
          // Stop before backward/apply: the optimizer must not step on
          // poisoned gradients.
          trip = "non-finite loss/logits/gradient";
          lr_at_fault = true;
          break;
        }
        model_->backward(sub.graph, d_logits_, cfg_.threads);
        {
          obs::PhaseScope scope(
              obs::Op::kUpdate, obs::Dir::kBackward, -1,
              obs::adam_work(
                  static_cast<std::int64_t>(model_->num_parameters())));
          model_->apply_gradients(*opt_);
        }
        GSGCN_COUNTER_INC("train.iterations");
        ++result.iterations;
      }
    } catch (const std::exception& e) {
      // Transient infra fault (sampler/pool exceptions surface here via
      // pop()). With the guard off the old contract holds: it propagates.
      if (!cfg_.guard) throw;
      trip = "sampler/pool exception";
      trip_what = e.what();
    }

    if (trip == nullptr && cfg_.guard) {
      const double mean_loss =
          loss_sum / static_cast<double>(iters_per_epoch);
      if (!std::isfinite(mean_loss) ||
          std::abs(mean_loss) > cfg_.guard_loss_limit) {
        trip = "epoch loss beyond guard_loss_limit";
        lr_at_fault = true;
      }
    }

    if (trip != nullptr) {
      result.recovery_seconds += epoch_timer.seconds();
      if (lr_at_fault) {
        ++result.guard_trips;
        GSGCN_COUNTER_INC("guard.trips");
      }
      if (retries_used >= cfg_.guard_max_retries) {
        pool_->stop_async();
        throw std::runtime_error(
            "trainer: rollback budget exhausted (" +
            std::to_string(cfg_.guard_max_retries) + " retries) at epoch " +
            std::to_string(epoch) + "; last trip: " + trip +
            (trip_what.empty() ? std::string() : ": " + trip_what));
      }
      ++retries_used;
      rollback(lr_at_fault);
      continue;  // replay the rolled-back epoch
    }

    const double epoch_wall = epoch_timer.seconds();
    kept += obs::thread_ledger() - ledger_before;
    kept_wall += epoch_wall;
    const double epoch_wait = pool_->pop_wait_seconds() - wait_before;
    const double epoch_compute = std::max(0.0, epoch_wall - epoch_wait);
    train_time += epoch_compute;
    sampler_wait += epoch_wait;

    EpochRecord rec;
    rec.epoch = epoch;
    rec.train_loss = loss_sum / static_cast<double>(iters_per_epoch);
    rec.epoch_seconds = epoch_compute;
    rec.cumulative_seconds = train_time;
    if (eval_epochs) rec.val_f1 = evaluate(ds_.val_vertices);
    result.history.push_back(rec);
    emit_epoch_record(rec);
    // Loss-over-time counter track next to the epoch spans in Perfetto.
    GSGCN_TRACE_COUNTER("train/loss", rec.train_loss);
    if (cfg_.metrics_every_epoch) emit_epoch_metrics(epoch);

    // Per-epoch learning-rate decay.
    if (cfg_.lr_decay != 1.0f) {
      lr *= cfg_.lr_decay;
      opt_->set_lr(lr);
    }
    // Early stopping / best-weights tracking on validation F1.
    if (cfg_.early_stop_patience > 0 || cfg_.restore_best) {
      if (rec.val_f1 > best_val + 1e-9) {
        best_val = rec.val_f1;
        stale_epochs = 0;
        if (cfg_.restore_best) best_weights = model_->snapshot_weights();
      } else if (cfg_.early_stop_patience > 0 &&
                 ++stale_epochs >= cfg_.early_stop_patience) {
        result.early_stopped = true;
      }
    }
    ++epoch;

    // Healthy epoch: refresh the rollback anchor (its lr now includes any
    // backoff, so the exponent resets) and, on cadence, publish it to disk.
    last_good = snapshot();
    divergence_backoffs = 0;
    if (mgr != nullptr && cfg_.checkpoint_every > 0 &&
        (epoch % cfg_.checkpoint_every == 0 || epoch == cfg_.epochs ||
         result.early_stopped)) {
      try {
        mgr->write(epoch, last_good);
        ++result.checkpoints_written;
        GSGCN_COUNTER_INC("ckpt.written");
      } catch (const std::exception&) {
        // A failed write must not kill training: the temp-file publish
        // protocol leaves the previous checkpoint authoritative.
        GSGCN_COUNTER_INC("ckpt.write_failures");
      }
    }
    // Post-checkpoint crash window: CI arms this site abort-kind to kill
    // the process here and prove --resume reproduces the uninterrupted
    // run's loss sequence byte for byte.
    util::fault_point("trainer.epoch_end");
    if (result.early_stopped) break;
  }
  if (cfg_.restore_best && !best_weights.empty()) {
    model_->restore_weights(best_weights);
  }

  // Stop the producer so the pool's accounting below is read at rest; a
  // later train() call restarts it. Any queued subgraphs stay FIFO.
  pool_->stop_async();

  result.train_seconds = train_time;
  result.sampler_wait_seconds = sampler_wait;
  result.sample_seconds = pool_->sampling_seconds();
  result.pool_stalls = static_cast<std::int64_t>(pool_->stalls());
  result.pool_cold_starts = static_cast<std::int64_t>(pool_->cold_starts());
  result.phases = kept;
  result.featprop_seconds = kept.op_seconds(obs::Op::kSpmm);
  result.weight_seconds = kept.op_seconds(obs::Op::kGemm) +
                          kept.op_seconds(obs::Op::kElementwise);
  result.unattributed_seconds = kept_wall - kept.total_seconds();
  if (cfg_.final_eval) {
    result.final_val_f1 = evaluate(ds_.val_vertices);
    result.final_test_f1 = evaluate(ds_.test_vertices);
  }
  if (mgr != nullptr && mgr->fallbacks() > 0) {
    GSGCN_COUNTER_ADD("ckpt.fallbacks",
                      static_cast<double>(mgr->fallbacks()));
  }
  emit_run_summary(result);
  return result;
}

void Trainer::emit_epoch_record(const EpochRecord& rec) const {
  obs::Telemetry& sink = obs::Telemetry::instance();
  if (!sink.enabled()) return;
  std::string line;
  util::JsonWriter w(&line);
  w.begin_object();
  w.key("type").value("epoch");
  w.key("epoch").value(rec.epoch);
  w.key("train_loss").value(rec.train_loss);
  w.key("val_f1").value(rec.val_f1);
  // Both granularities, explicitly named: the old record emitted the
  // cumulative value under "train_seconds", which read as per-epoch.
  w.key("epoch_seconds").value(rec.epoch_seconds);
  w.key("cumulative_seconds").value(rec.cumulative_seconds);
  w.end_object();
  sink.emit(line);
}

void Trainer::emit_epoch_metrics(int epoch) const {
  obs::Telemetry& sink = obs::Telemetry::instance();
  if (!sink.enabled()) return;
  // Safe while the async producer keeps writing pool metrics: shard
  // cells are single-writer atomics.
  std::string line;
  util::JsonWriter w(&line);
  w.begin_object();
  w.key("type").value("metrics");
  w.key("epoch").value(epoch);
  w.key("metrics").value_raw(obs::Registry::instance().scrape().to_json());
  w.end_object();
  sink.emit(line);
}

void Trainer::emit_run_summary(const TrainResult& result) const {
  obs::Telemetry& sink = obs::Telemetry::instance();
  if (!sink.enabled()) return;
  std::string line;
  util::JsonWriter w(&line);
  w.begin_object();
  w.key("type").value("run_summary");
  w.key("sampler").value(sampler_kind_name(cfg_.sampler));
  // Requested vs. effective sampler parameters: the constructor clamps
  // budget/frontier against the training-graph size, and a silent clamp
  // has bitten small-dataset experiments before — make it visible.
  w.key("requested_budget").value(static_cast<std::int64_t>(cfg_.budget));
  w.key("effective_budget").value(static_cast<std::int64_t>(budget_));
  w.key("requested_frontier")
      .value(static_cast<std::int64_t>(cfg_.frontier_size));
  w.key("effective_frontier").value(static_cast<std::int64_t>(frontier_));
  w.key("params_clamped")
      .value(budget_ != cfg_.budget || frontier_ != cfg_.frontier_size);
  w.key("train_graph_vertices")
      .value(static_cast<std::int64_t>(train_graph_.num_vertices()));
  w.key("epochs_run").value(static_cast<std::int64_t>(result.history.size()));
  w.key("iterations").value(result.iterations);
  w.key("early_stopped").value(result.early_stopped);
  // Pipeline configuration + health: stall-free async runs report
  // pool_stalls == 0 (asserted by the CI obs smoke job).
  w.key("async_sampling").value(cfg_.async_sampling);
  w.key("pool_capacity")
      .value(static_cast<std::int64_t>(pool_->capacity()));
  w.key("pool_stalls").value(result.pool_stalls);
  w.key("pool_cold_starts").value(result.pool_cold_starts);
  w.key("train_seconds").value(result.train_seconds);
  w.key("sampler_wait_seconds").value(result.sampler_wait_seconds);
  w.key("sample_seconds").value(result.sample_seconds);
  w.key("featprop_seconds").value(result.featprop_seconds);
  w.key("weight_seconds").value(result.weight_seconds);
  w.key("unattributed_seconds").value(result.unattributed_seconds);
  w.key("phases").value_raw(result.phases.to_json());
  w.key("final_val_f1").value(result.final_val_f1);
  w.key("final_test_f1").value(result.final_test_f1);
  // Fault-tolerance accounting: all zero / -1 on a clean fresh run. The
  // CI recovery job asserts on these (rollbacks after an injected poison,
  // resumed_from_epoch after a kill + --resume).
  w.key("checkpoints_written").value(result.checkpoints_written);
  w.key("guard_trips").value(result.guard_trips);
  w.key("rollbacks").value(result.rollbacks);
  w.key("resumed_from_epoch")
      .value(static_cast<std::int64_t>(result.resumed_from_epoch));
  w.key("recovery_seconds").value(result.recovery_seconds);
  w.key("faults_injected")
      .value(static_cast<std::int64_t>(
          util::FaultInjector::instance().fired_total()));
  // Full metrics scrape (counters/gauges/histograms).
  w.key("metrics").value_raw(obs::Registry::instance().scrape().to_json());
  // Per-phase roofline attribution (see obs/roofline.hpp) when the PMU
  // profiler was enabled for this run. The producer is already stopped
  // (stop_async above), so the scrape is at a quiescent point.
  obs::PerfProfiler& prof = obs::PerfProfiler::instance();
  if (prof.enabled()) {
    w.key("perf").value_raw(
        obs::roofline_report_json(prof.scrape(), obs::machine_info()));
  }
  w.end_object();
  sink.emit(line);
}

double Trainer::evaluate(const std::vector<graph::Vid>& subset) {
  return evaluate_f1(*model_, ds_, subset, eval_, cfg_.threads);
}

}  // namespace gsgcn::gcn
