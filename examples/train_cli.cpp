// gsgcn train CLI — the full pipeline a downstream user runs:
//
//   1. data: a preset (--preset reddit-s), synthetic params, or a real
//      edge list (--edges graph.txt, SNAP format; labels/features are
//      then synthesized from graph communities for demonstration)
//   2. optional PCA feature compression (--pca 64)
//   3. training with every knob exposed (sampler, aggregator, dropout,
//      lr schedule, early stopping, degree cap, parallelism)
//   4. a per-class classification report on the test split
//   5. optional checkpoint save/restore round trip (--checkpoint out.bin)
//
//   ./train_cli --preset ppi-s --epochs 10 --hidden 64 --dropout 0.2
//   ./train_cli --edges my_graph.txt --classes 8 --pca 32
//   ./train_cli --help

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>

#include "data/dataset.hpp"
#include "data/feature_store.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "gcn/loss.hpp"
#include "gcn/metrics.hpp"
#include "gcn/trainer.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/roofline.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace {

using namespace gsgcn;

void print_help() {
  std::printf(R"(gsgcn train_cli — train a graph-sampling GCN end to end

data source (choose one):
  --preset NAME        ppi-s | reddit-s | yelp-s | amazon-s
  --edges FILE         SNAP-format edge list; labels are synthesized from
                       SBM-like communities detected by --classes
  --dataset FILE       binary dataset written by make_dataset (.gsd); may
                       be featureless when paired with --feature-mmap
  (default)            synthetic SBM dataset (--vertices, --classes, ...)

data options:
  --vertices N (3000)  --classes C (8)     --features F (48)
  --degree D (14)      --multi-label       --pca K (0 = off)

feature store:
  --feature-dtype D    fp32 | fp16 | bf16 | int8 — train-gather codec;
                       rows widen to fp32 on the fly (fp32 = passthrough)
  --feature-cache-mb M hot-vertex fp32 cache budget, degree-ordered (0)
  --feature-mmap FILE  train out-of-core from a FeatureStore file
                       (make_dataset --feature-file). Written from the
                       dataset's features first if FILE doesn't exist.
  --no-eval            skip per-epoch/final evaluation and the test
                       report (required when the dataset is featureless:
                       full-graph inference needs dense fp32 features)

model / training:
  --layers L (2)       --hidden H (64)     --dropout P (0)
  --aggregator A       mean | sum | symmetric
  --epochs E (10)      --lr R (0.01)       --lr-decay M (1.0)
  --grad-clip G (0)    --patience K (0 = no early stopping)
  --restore-best       keep the best-val-F1 weights
  --saint-norm         GraphSAINT-style unbiased loss normalization

sampler:
  --sampler S          frontier | naive | uniform | edge | walk | fire | snowball
  --frontier M (300)   --budget N (1200)   --eta E (2.0)  --degree-cap C (0)

parallelism / misc:
  --threads T (all)    --p-inter K (all)   --seed S (42)
  --async-sampling     sample on a background producer thread overlapped
                       with training (same subgraph sequence as sync)
  --pool-capacity N    subgraph queue bound in async mode (0 = 2*p_inter)
  --checkpoint FILE    save trained weights, reload, re-evaluate

fault tolerance:
  --checkpoint-dir D   write full training checkpoints (weights + Adam +
                       RNG streams + pool cursor) into D, atomically
  --checkpoint-every N checkpoint cadence in epochs (1)
  --resume             continue from the newest valid checkpoint in
                       --checkpoint-dir; reproduces the uninterrupted
                       run's subgraph and loss sequence byte for byte
  --no-guard           disable the divergence guard (rollback + lr
                       backoff on non-finite or exploding loss)
  --guard-loss-limit L |epoch loss| that counts as divergence (1e8)
  --max-retries K      rollback budget before giving up (3)
  --lr-backoff M       lr multiplier per divergence rollback (0.5)

observability:
  --trace-out FILE     Chrome trace-event JSON of the whole run; open in
                       Perfetto or chrome://tracing
  --metrics-out FILE   JSONL telemetry: one "epoch" record per epoch plus
                       a final "run_summary" (phase ledger + counters)
  --metrics-every-epoch  also scrape + emit the metrics registry at each
                       epoch boundary (type "metrics" records in the
                       --metrics-out JSONL)
  --perf-out FILE      per-phase roofline report (cycles, IPC, LLC miss
                       rate, GFLOP/s, GB/s, arithmetic intensity) from
                       hardware counters via perf_event_open; degrades
                       gracefully (available=false) where the PMU is
                       denied — containers, perf_event_paranoid, VMs
)");
}

gcn::SamplerKind parse_sampler(const std::string& s) {
  if (s == "frontier") return gcn::SamplerKind::kFrontierDashboard;
  if (s == "naive") return gcn::SamplerKind::kFrontierNaive;
  if (s == "uniform") return gcn::SamplerKind::kUniformNode;
  if (s == "edge") return gcn::SamplerKind::kRandomEdge;
  if (s == "walk") return gcn::SamplerKind::kRandomWalk;
  if (s == "fire") return gcn::SamplerKind::kForestFire;
  if (s == "snowball") return gcn::SamplerKind::kSnowball;
  throw std::invalid_argument("unknown --sampler: " + s);
}

propagation::AggregatorKind parse_aggregator(const std::string& s) {
  if (s == "mean") return propagation::AggregatorKind::kMean;
  if (s == "sum") return propagation::AggregatorKind::kSum;
  if (s == "symmetric") return propagation::AggregatorKind::kSymmetric;
  throw std::invalid_argument("unknown --aggregator: " + s);
}

/// Build a labeled dataset around an externally supplied graph: vertices
/// get community labels by hashing their BFS component + ego region, and
/// class-correlated features — enough structure to demo the pipeline on
/// any edge list without shipping labels.
data::Dataset dataset_from_edges(const std::string& path,
                                 std::uint32_t classes, std::size_t features,
                                 std::uint64_t seed) {
  data::Dataset ds;
  ds.graph = graph::load_edgelist_text(path);
  const graph::Vid n = ds.graph.num_vertices();
  if (n < classes * 4) throw std::invalid_argument("graph too small");
  util::Xoshiro256 rng(seed);

  // Label by seeded BFS regions: pick `classes` roots, grow in rounds.
  std::vector<std::uint32_t> label(n, classes);
  std::vector<graph::Vid> frontier;
  const auto roots = util::sample_without_replacement(n, classes, rng);
  for (std::uint32_t c = 0; c < classes; ++c) {
    label[roots[c]] = c;
    frontier.push_back(roots[c]);
  }
  while (!frontier.empty()) {
    std::vector<graph::Vid> next;
    for (const graph::Vid u : frontier) {
      for (const graph::Vid v : ds.graph.neighbors(u)) {
        if (label[v] == classes) {
          label[v] = label[u];
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  for (graph::Vid v = 0; v < n; ++v) {
    if (label[v] == classes) label[v] = rng.below(classes);  // isolated
  }

  ds.labels = tensor::Matrix(n, classes);
  for (graph::Vid v = 0; v < n; ++v) ds.labels(v, label[v]) = 1.0f;
  ds.mode = data::LabelMode::kSingle;

  tensor::Matrix means = tensor::Matrix::gaussian(classes, features, 1.0f, rng);
  ds.features = tensor::Matrix::gaussian(n, features, 1.0f, rng);
  for (graph::Vid v = 0; v < n; ++v) {
    const float* mu = means.row(label[v]);
    float* x = ds.features.row(v);
    for (std::size_t j = 0; j < features; ++j) x[j] += mu[j];
  }
  tensor::l2_normalize_rows(ds.features);
  data::make_split(n, 0.6, 0.2, rng, ds.train_vertices, ds.val_vertices,
                   ds.test_vertices);
  ds.name = path;
  return ds;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv);
    if (cli.has("help")) {
      print_help();
      return 0;
    }
    const auto seed = static_cast<std::uint64_t>(cli.get("seed", 42));

    // ---- data ----
    data::Dataset ds;
    if (cli.has("preset")) {
      ds = data::make_preset(cli.get("preset", std::string("ppi-s")));
    } else if (cli.has("dataset")) {
      ds = data::load_dataset(cli.get("dataset", std::string()));
    } else if (cli.has("edges")) {
      ds = dataset_from_edges(
          cli.get("edges", std::string()),
          static_cast<std::uint32_t>(cli.get("classes", 8)),
          static_cast<std::size_t>(cli.get("features", 48)), seed);
    } else {
      data::SyntheticParams p;
      p.num_vertices = static_cast<graph::Vid>(cli.get("vertices", 3000));
      p.num_classes = static_cast<std::uint32_t>(cli.get("classes", 8));
      p.feature_dim = static_cast<std::size_t>(cli.get("features", 48));
      p.avg_degree = cli.get("degree", 14.0);
      p.mode = cli.has("multi-label") && cli.get("multi-label", false)
                   ? data::LabelMode::kMulti
                   : data::LabelMode::kSingle;
      p.seed = seed;
      ds = data::make_synthetic(p);
    }
    const int pca = cli.get("pca", 0);
    if (pca > 0) {
      double explained = 0.0;
      tensor::Matrix f = ds.features;
      data::standardize_columns(f);
      ds.features = data::pca_compress(f, static_cast<std::size_t>(pca),
                                       &explained);
      tensor::l2_normalize_rows(ds.features);
      std::printf("PCA: %d components keep %.1f%% of variance\n", pca,
                  100.0 * explained);
    }
    std::printf("dataset '%s': %u vertices, %lld edges, f=%zu, C=%zu (%s)\n",
                ds.name.c_str(), ds.num_vertices(),
                static_cast<long long>(ds.graph.num_edges() / 2),
                ds.feature_dim(), ds.num_classes(),
                ds.mode == data::LabelMode::kMulti ? "multi" : "single");

    // ---- training ----
    gcn::TrainerConfig cfg;
    cfg.hidden_dim = static_cast<std::size_t>(cli.get("hidden", 64));
    cfg.num_layers = cli.get("layers", 2);
    cfg.dropout = static_cast<float>(cli.get("dropout", 0.0));
    cfg.aggregator = parse_aggregator(cli.get("aggregator", std::string("mean")));
    cfg.epochs = cli.get("epochs", 10);
    cfg.lr = static_cast<float>(cli.get("lr", 0.01));
    cfg.lr_decay = static_cast<float>(cli.get("lr-decay", 1.0));
    cfg.grad_clip = static_cast<float>(cli.get("grad-clip", 0.0));
    cfg.early_stop_patience = cli.get("patience", 0);
    cfg.restore_best = cli.get("restore-best", false);
    cfg.saint_loss_norm = cli.get("saint-norm", false);
    cfg.sampler = parse_sampler(cli.get("sampler", std::string("frontier")));
    cfg.frontier_size = static_cast<graph::Vid>(cli.get("frontier", 300));
    cfg.budget = static_cast<graph::Vid>(cli.get("budget", 1200));
    cfg.eta = cli.get("eta", 2.0);
    cfg.degree_cap = cli.get("degree-cap", 0);
    cfg.threads = cli.get("threads", util::max_threads());
    cfg.p_inter = cli.get("p-inter", util::max_threads());
    cfg.async_sampling = cli.get("async-sampling", false);
    cfg.pool_capacity =
        static_cast<std::size_t>(cli.get("pool-capacity", 0));
    cfg.seed = seed;
    cfg.checkpoint_dir = cli.get("checkpoint-dir", std::string());
    cfg.checkpoint_every = cli.get("checkpoint-every", 1);
    cfg.resume = cli.get("resume", false);
    cfg.guard = !cli.get("no-guard", false);
    cfg.guard_loss_limit = cli.get("guard-loss-limit", 1e8);
    cfg.guard_max_retries = cli.get("max-retries", 3);
    cfg.guard_lr_backoff = static_cast<float>(cli.get("lr-backoff", 0.5));
    if (cfg.resume && cfg.checkpoint_dir.empty()) {
      std::cerr << "error: --resume requires --checkpoint-dir\n";
      return 2;
    }
    cfg.feature_dtype = data::parse_feature_dtype(
        cli.get("feature-dtype", std::string("fp32")));
    cfg.feature_cache_mb =
        static_cast<std::size_t>(cli.get("feature-cache-mb", 0));
    const std::string feature_mmap = cli.get("feature-mmap", std::string());
    if (cli.get("no-eval", false)) {
      cfg.eval_every_epoch = false;
      cfg.final_eval = false;
    }
    cfg.metrics_every_epoch = cli.get("metrics-every-epoch", false);
    const std::string ckpt = cli.get("checkpoint", std::string());
    const std::string trace_out = cli.get("trace-out", std::string());
    const std::string metrics_out = cli.get("metrics-out", std::string());
    const std::string perf_out = cli.get("perf-out", std::string());

    for (const auto& flag : cli.unused()) {
      std::cerr << "unknown flag: --" << flag << " (see --help)\n";
      return 2;
    }

    if (!trace_out.empty()) obs::Tracer::instance().start(trace_out);
    if (!metrics_out.empty() &&
        !obs::Telemetry::instance().open(metrics_out)) {
      return 1;
    }
    if (cfg.metrics_every_epoch && metrics_out.empty()) {
      std::fprintf(stderr,
                   "warning: --metrics-every-epoch has no effect without "
                   "--metrics-out\n");
    }
    if (!perf_out.empty()) obs::PerfProfiler::instance().enable();

    // Out-of-core path: map the feature file (writing it first from the
    // in-RAM features if it doesn't exist yet) and hand the trainer an
    // external store; the dataset's dense matrix is freed before training.
    std::unique_ptr<data::FeatureStore> mmap_store;
    if (!feature_mmap.empty()) {
      if (!std::filesystem::exists(feature_mmap)) {
        if (ds.features.empty()) {
          std::cerr << "error: --feature-mmap file does not exist and the "
                       "dataset has no features to write it from\n";
          return 2;
        }
        data::FeatureStore::write_file(feature_mmap, ds.features,
                                       cfg.feature_dtype);
      }
      data::FeatureStoreOptions fo;
      fo.cache_mb = cfg.feature_cache_mb;
      mmap_store = std::make_unique<data::FeatureStore>(
          data::FeatureStore::open_mmap(feature_mmap, fo,
                                        graph::degree_order(ds.graph)));
      ds.features = tensor::Matrix();  // train from the map, not RAM
      std::printf("feature store: %s, %zu x %zu %s, cache %zu rows\n",
                  feature_mmap.c_str(), mmap_store->rows(),
                  mmap_store->cols(),
                  data::feature_dtype_name(mmap_store->dtype()),
                  mmap_store->cache_rows());
    }
    const bool dense_features = !ds.features.empty();
    if (!dense_features && (cfg.eval_every_epoch || cfg.final_eval ||
                            cfg.early_stop_patience > 0 || cfg.restore_best)) {
      std::cerr << "error: featureless out-of-core training needs --no-eval "
                   "(and no --patience/--restore-best): evaluation runs "
                   "full-graph inference over dense fp32 features\n";
      return 2;
    }

    gcn::Trainer trainer(ds, cfg, mmap_store.get());
    std::printf("training: %d layers, hidden %zu, sampler %s (m=%u n=%u)\n",
                cfg.num_layers, cfg.hidden_dim,
                gcn::sampler_kind_name(cfg.sampler),
                trainer.effective_frontier(), trainer.effective_budget());
    const gcn::TrainResult result = trainer.train();
    if (result.resumed_from_epoch >= 0) {
      std::printf("resumed from checkpoint at epoch %d\n",
                  result.resumed_from_epoch);
    }
    for (const auto& rec : result.history) {
      std::printf("  epoch %2d  loss %.4f  val F1 %.4f  (%.2fs, total %.2fs)\n",
                  rec.epoch, rec.train_loss, rec.val_f1, rec.epoch_seconds,
                  rec.cumulative_seconds);
    }
    if (result.early_stopped) std::printf("  (early stopped)\n");
    if (result.rollbacks > 0 || result.checkpoints_written > 0) {
      std::printf(
          "fault tolerance: %lld checkpoints, %lld guard trips, "
          "%lld rollbacks (%.2fs in discarded epochs)\n",
          static_cast<long long>(result.checkpoints_written),
          static_cast<long long>(result.guard_trips),
          static_cast<long long>(result.rollbacks), result.recovery_seconds);
    }
    if (cfg.async_sampling) {
      std::printf(
          "async pipeline: %lld stalls, %lld cold starts, "
          "%.2fs sampler wait vs %.2fs overlapped sampling\n",
          static_cast<long long>(result.pool_stalls),
          static_cast<long long>(result.pool_cold_starts),
          result.sampler_wait_seconds, result.sample_seconds);
    }

    // ---- report ----
    // Full-graph inference wants the dense fp32 matrix; out-of-core runs
    // (featureless dataset) skip the report rather than widening |V|xF.
    if (dense_features) {
      const tensor::Matrix& logits =
          trainer.model().forward(ds.graph, ds.features, cfg.threads);
      tensor::Matrix pred(logits.rows(), logits.cols());
      gcn::predict(ds.mode, logits, pred);
      tensor::Matrix test_pred(ds.test_vertices.size(), logits.cols());
      tensor::Matrix test_truth(ds.test_vertices.size(), logits.cols());
      tensor::gather_rows(pred, ds.test_vertices, test_pred, cfg.threads);
      tensor::gather_rows(ds.labels, ds.test_vertices, test_truth,
                          cfg.threads);
      std::printf("\ntest-split classification report:\n%s",
                  gcn::format_report(
                      gcn::classification_report(test_pred, test_truth))
                      .c_str());

      // ---- checkpoint round trip ----
      if (!ckpt.empty()) {
        trainer.model().save(ckpt);
        gcn::GcnModel restored = gcn::GcnModel::load(ckpt);
        const tensor::Matrix& logits2 =
            restored.forward(ds.graph, ds.features, cfg.threads);
        const float drift = tensor::Matrix::max_abs_diff(logits, logits2);
        std::printf("checkpoint '%s' saved; reload drift %.2g (expect 0)\n",
                    ckpt.c_str(), static_cast<double>(drift));
      }
    } else if (!ckpt.empty()) {
      trainer.model().save(ckpt);
      std::printf("checkpoint '%s' saved (reload check skipped: no dense "
                  "features)\n",
                  ckpt.c_str());
    }

    // Gather-path traffic accounting from the process-wide featstore.*
    // counters (every gather in this process went to the store that fed
    // training).
    const data::FeatureStore* fs =
        mmap_store ? mmap_store.get() : trainer.feature_store();
    if (fs != nullptr) {
      const obs::MetricsSnapshot snap = obs::Registry::instance().scrape();
      const double rows = snap.counter("featstore.rows");
      std::printf(
          "feature gathers: %llu rows (%s), %.1f%% cache hits, "
          "%.1f MB moved, %.1f MB prefetch hints\n",
          static_cast<unsigned long long>(rows),
          data::feature_dtype_name(fs->dtype()),
          rows > 0.0 ? 100.0 * snap.counter("featstore.cache_hits") / rows
                     : 0.0,
          snap.counter("featstore.bytes_moved") / (1024.0 * 1024.0),
          snap.counter("featstore.prefetch_bytes") / (1024.0 * 1024.0));
    }

    // ---- observability artifacts ----
    if (!trace_out.empty()) {
      const std::size_t n_events = obs::Tracer::instance().event_count();
      if (obs::Tracer::instance().stop()) {
        std::printf("trace: %zu events -> %s\n", n_events, trace_out.c_str());
      }
    }
    if (!metrics_out.empty()) {
      obs::Telemetry::instance().close();
      std::printf("telemetry: %s\n", metrics_out.c_str());
    }
    if (!perf_out.empty()) {
      // The run is over (training joined its workers above), so this is
      // a quiescent point for the profiler scrape. A denied PMU is not
      // an error: the report still carries wall time + modeled work per
      // phase, with available=false on the counter-derived metrics.
      obs::PerfProfiler& prof = obs::PerfProfiler::instance();
      const std::vector<obs::PhasePerf> phases = prof.scrape();
      if (!obs::write_roofline_report(perf_out)) return 1;
      bool any_pmu = false;
      for (const auto& p : phases) any_pmu = any_pmu || p.available;
      std::printf("perf: %zu phases (%s) -> %s\n", phases.size(),
                  any_pmu ? "hardware counters" : "PMU unavailable; "
                                                  "wall-clock + work models",
                  perf_out.c_str());
      for (const auto& p : phases) {
        if (p.available) {
          std::printf(
              "  %-9s %7.3fs  %7.2f GFLOP/s  AI %6.2f  IPC %.2f  "
              "LLC miss %4.1f%%  %6.2f GB/s measured\n",
              p.name.c_str(), p.seconds(), p.gflops(),
              p.arithmetic_intensity(), p.ipc(), 100.0 * p.llc_miss_rate(),
              p.measured_gbps());
        } else {
          std::printf(
              "  %-9s %7.3fs  %7.2f GFLOP/s  AI %6.2f  %6.2f GB/s model\n",
              p.name.c_str(), p.seconds(), p.gflops(),
              p.arithmetic_intensity(), p.model_gbps());
        }
      }
      prof.disable();
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
