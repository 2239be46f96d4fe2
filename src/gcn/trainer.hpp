#pragma once
// Minibatch trainer implementing the paper's Algorithm 5:
//
//   while not done:
//     if pool empty: sample p_inter subgraphs in parallel
//     G_sub ← pool.pop()
//     complete-GCN forward/backward on G_sub; Adam step
//
// Training happens on the *training graph* (the subgraph of the dataset
// induced on the training split, as in GraphSAGE's inductive setup), so
// every sampled vertex carries a supervised label. Validation/test use
// full-graph inference.

#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "data/feature_store.hpp"
#include "gcn/model.hpp"
#include "gcn/inference.hpp"
#include "gcn/saint_norm.hpp"
#include "obs/phase.hpp"
#include "sampling/dashboard.hpp"
#include "sampling/frontier_naive.hpp"
#include "sampling/pool.hpp"

namespace gsgcn::gcn {

enum class SamplerKind {
  kFrontierDashboard,  // the paper's sampler
  kFrontierNaive,      // O(m·n) baseline, same distribution
  kUniformNode,
  kRandomEdge,
  kRandomWalk,
  kForestFire,
  kSnowball,
};

const char* sampler_kind_name(SamplerKind kind);

struct TrainerConfig {
  // Model.
  std::size_t hidden_dim = 128;
  int num_layers = 2;
  float lr = 0.01f;
  propagation::AggregatorKind aggregator =
      propagation::AggregatorKind::kMean;
  float dropout = 0.0f;
  float grad_clip = 0.0f;  // per-tensor L2 gradient clip (0 = off)

  // Schedule.
  int epochs = 10;
  float lr_decay = 1.0f;          // multiplicative per epoch
  int early_stop_patience = 0;    // epochs without val-F1 improvement
                                  // before stopping (0 = off; forces
                                  // per-epoch evaluation)
  bool restore_best = false;      // keep the best-val-F1 weights (forces
                                  // per-epoch evaluation)

  // Sampler (paper defaults m=1000, n=8000 scaled to dataset size at
  // construction: both are clamped against the training-graph size).
  SamplerKind sampler = SamplerKind::kFrontierDashboard;
  graph::Vid frontier_size = 1000;
  graph::Vid budget = 8000;
  double eta = 2.0;
  graph::Eid degree_cap = 0;
  sampling::IntraMode intra = sampling::IntraMode::kAuto;

  // Parallelism (paper's p_inter; `threads` drives propagation + GEMM).
  int p_inter = 1;
  int threads = 1;

  // Async pipeline: sample on a background producer thread so the
  // trainer never waits for a refill (Algorithm 5's inter-subgraph
  // overlap taken across the sampler/trainer boundary). The subgraph
  // sequence is identical to sync mode — the pool draws slot k from RNG
  // stream (seed, k) in both — so this is a pure throughput knob.
  bool async_sampling = false;
  std::size_t pool_capacity = 0;  // subgraph queue bound; 0 → 2·p_inter

  // Feature storage (data/feature_store.hpp): codec for the training
  // gather path and the hot-vertex fp32 cache budget. fp32 with no cache
  // is a zero-copy view — byte-identical to the legacy dense path. All
  // codecs keep gathers bit-identical across thread counts/cache sizes.
  data::FeatureDtype feature_dtype = data::FeatureDtype::kF32;
  std::size_t feature_cache_mb = 0;

  std::uint64_t seed = 1;
  bool eval_every_epoch = true;
  // Run the final val/test full-graph evaluation after the loop. Needs
  // dense ds.features; out-of-core runs (stripped dataset + external
  // FeatureStore) turn it off along with eval_every_epoch.
  bool final_eval = true;

  // Scrape + emit the metrics registry (telemetry record type "metrics")
  // at every epoch boundary instead of only in the final run_summary, so
  // long runs are inspectable mid-flight. The scrape runs beside the
  // async producer without pausing it.
  bool metrics_every_epoch = false;

  // Fault tolerance (gcn/checkpoint.hpp; DESIGN.md "Fault tolerance").
  // With a checkpoint_dir set, a versioned CRC-protected checkpoint is
  // written atomically every `checkpoint_every` healthy epochs; `resume`
  // restores the newest valid one and continues the byte-identical
  // subgraph/loss sequence the uninterrupted run would have produced.
  std::string checkpoint_dir;  // empty = no on-disk checkpoints
  int checkpoint_every = 1;    // epoch cadence (<= 0 disables writes)
  bool resume = false;         // load newest valid checkpoint before training

  // Divergence guard — active in every build, *including* Release, where
  // the GSGCN_CHECK_* invariants compile out: long training campaigns
  // need cheap always-on detection, not just debug aborts. A non-finite
  // iteration loss / logits / loss gradient, or an epoch loss beyond
  // guard_loss_limit, trips the guard: the trainer rolls back to the last
  // good state (on-disk checkpoint payload or the in-memory anchor),
  // applies multiplicative learning-rate backoff, and retries, up to
  // guard_max_retries restores per run. Transient sampler/pool faults
  // (exceptions out of pop()) take the same rollback path but skip the
  // backoff — the learning rate was not at fault.
  bool guard = true;
  double guard_loss_limit = 1e8;  // |epoch mean loss| beyond this trips
  int guard_max_retries = 3;      // total rollbacks before giving up
  float guard_lr_backoff = 0.5f;  // lr multiplier per divergence rollback

  // GraphSAINT-style loss normalization (the paper's future-work
  // direction): pre-sample `saint_presamples` subgraphs to estimate each
  // vertex's inclusion probability, then weight minibatch losses by its
  // inverse so the sampled loss is unbiased despite the sampler's degree
  // bias.
  bool saint_loss_norm = false;
  int saint_presamples = 64;
};

struct EpochRecord {
  int epoch = 0;
  double train_loss = 0.0;
  double val_f1 = 0.0;
  // Compute time only: eval and sampler wait (blocked in pool pop, incl.
  // inline refills) are both excluded, so the phase breakdown sums
  // correctly instead of double-counting refill time into training.
  double epoch_seconds = 0.0;       // this epoch
  double cumulative_seconds = 0.0;  // running sum over epochs so far
};

struct TrainResult {
  std::vector<EpochRecord> history;
  bool early_stopped = false;
  double train_seconds = 0.0;        // total compute time (no eval, no
                                     // sampler wait)
  double sampler_wait_seconds = 0.0; // trainer time blocked in pool pop
                                     // (train_seconds + this = loop wall)
  double sample_seconds = 0.0;       // Figure-3D "Sampling"; producer-side
                                     // time, overlapped in async mode
  // Phase-ledger delta of the kept epochs on the training thread
  // (obs/phase.hpp). Its ops plus unattributed_seconds are the kept
  // epochs' wall time (train_seconds + sampler_wait_seconds on a fresh
  // run); evaluation is outside the ledger.
  obs::Ledger phases;
  double featprop_seconds = 0.0;     // Figure-3D "Feat Propagation": spmm
  double weight_seconds = 0.0;       // Figure-3D "Weight Application":
                                     // gemm + elementwise
  double unattributed_seconds = 0.0; // kept-epoch wall minus the ledger
  double final_val_f1 = 0.0;
  double final_test_f1 = 0.0;
  std::int64_t iterations = 0;
  std::int64_t pool_stalls = 0;       // pops that hit an empty pool after
                                      // warmup (0 = pipeline kept up)
  std::int64_t pool_cold_starts = 0;  // warmup fills (prefill; expect 1)

  // Fault-tolerance accounting (all zero on a clean, fresh run).
  std::int64_t checkpoints_written = 0;
  std::int64_t guard_trips = 0;      // divergence detections
  std::int64_t rollbacks = 0;        // state restores (divergence + transient)
  int resumed_from_epoch = -1;       // epoch a --resume continued from; -1 = fresh
  double recovery_seconds = 0.0;     // wall time burnt in discarded epochs
};

class Trainer {
 public:
  /// `dataset_features`, when given, replaces `dataset.features` on the
  /// training gather path: a FeatureStore over *dataset* vertex ids
  /// (rows() must equal |V|), e.g. an mmap-opened feature file. It must
  /// outlive the trainer. The dataset's dense features may then be empty,
  /// in which case every evaluation flag must be off (full-graph
  /// inference needs dense features).
  Trainer(const data::Dataset& dataset, const TrainerConfig& config,
          const data::FeatureStore* dataset_features = nullptr);

  TrainResult train();

  /// F1-micro of full-graph inference restricted to `subset` rows.
  double evaluate(const std::vector<graph::Vid>& subset);

  GcnModel& model() { return *model_; }
  const TrainerConfig& config() const { return cfg_; }

  /// Effective (clamped) sampler parameters — exposed for the benches.
  graph::Vid effective_budget() const { return budget_; }
  graph::Vid effective_frontier() const { return frontier_; }
  graph::Vid train_graph_size() const { return train_graph_.num_vertices(); }

  /// The store feeding training gathers, keyed by dataset ids in every
  /// mode: the external store when one was passed, else the internal one
  /// over ds.features (a zero-copy view for fp32 with no cache).
  const data::FeatureStore* feature_store() const {
    return ext_features_ != nullptr ? ext_features_ : feat_store_.get();
  }

 private:
  std::unique_ptr<sampling::VertexSampler> make_sampler(int instance) const;

  // Structured telemetry (obs::Telemetry JSONL); no-ops when no sink is open.
  void emit_epoch_record(const EpochRecord& rec) const;
  void emit_epoch_metrics(int epoch) const;
  void emit_run_summary(const TrainResult& result) const;

  const data::Dataset& ds_;
  TrainerConfig cfg_;
  graph::Vid frontier_ = 0;
  graph::Vid budget_ = 0;

  graph::CsrGraph train_graph_;          // induced on the training split
  std::vector<graph::Vid> train_orig_;   // train-graph local → dataset id

  // Training-gather feature source: exactly one of these is active. Both
  // are indexed by dataset ids, like ds_.labels; batch ids are translated
  // through train_orig_.
  const data::FeatureStore* ext_features_ = nullptr;
  std::unique_ptr<data::FeatureStore> feat_store_;
  std::size_t in_dim_ = 0;
  std::vector<std::uint32_t> batch_ids_;     // dataset ids of the batch
  std::vector<std::uint32_t> prefetch_ids_;  // mmap lookahead scratch

  std::unique_ptr<GcnModel> model_;
  std::unique_ptr<Adam> opt_;
  std::unique_ptr<sampling::SubgraphPool> pool_;
  std::unique_ptr<SaintNormalizer> saint_;

  // Batch scratch.
  tensor::Matrix batch_features_;
  tensor::Matrix batch_labels_;
  tensor::Matrix d_logits_;
  EvalScratch eval_;
};

}  // namespace gsgcn::gcn
