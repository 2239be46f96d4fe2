// Training workloads: train-wide (Reddit-like), train-deep (PPI-like) and
// train-ooc (Amazon-like, int8 mmap feature store).
//
// End-to-end run: set-up time (Trainer construction, median of several),
// iterations/s of Trainer::train() with evaluation off, and the time to the
// workload's quality target. Traced run: trace_layers().

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "data/synthetic.hpp"
#include "graph/reorder.hpp"
#include "util/rng.hpp"

namespace bench {
namespace {

using namespace gsgcn;

struct TrainSpec {
  data::SyntheticParams data;
  gcn::TrainerConfig cfg;
  bool ooc = false;            // features from an int8 mmap store file
  std::size_t cache_mb = 0;    // hot-vertex cache of that store
  // Quality target: validation F1 (single-label) when f1_target > 0, else
  // the epoch mean training loss (multi-label F1 stays 0 at these budgets).
  double f1_target = 0.0;
  double loss_target = 0.0;
  int max_quality_epochs = 25;
  // Epochs per second of measured window. It fixes the epoch count from
  // --seconds alone, so losses (and the quality crossing) depend only on
  // the seed and the window, never on how fast the host happens to be.
  double epochs_per_second = 1.0;
  int chunk_epochs = 1;  // epochs per timed train() call (about 1 s)
};

TrainSpec train_spec(const Options& opt) {
  TrainSpec s;
  data::SyntheticParams& d = s.data;
  gcn::TrainerConfig& c = s.cfg;
  d.seed = opt.seed;
  c.seed = opt.seed;
  c.threads = 2;
  c.eval_every_epoch = false;
  c.final_eval = false;
  c.frontier_size = 1000;
  c.budget = 8000;
  if (opt.workload == "train-wide") {
    // Layer 0 is fat (602 inputs): layer-0 GEMM, the 602-wide SpMM and the
    // unused layer-0 input gradient dominate.
    d.name = "train-wide";
    d.num_vertices = 40000;
    d.avg_degree = 25.0;
    d.homophily = 5.0;
    d.feature_signal = 0.15;
    d.feature_dim = 602;
    d.num_classes = 41;
    d.mode = data::LabelMode::kSingle;
    c.hidden_dim = 128;
    c.num_layers = 2;
    c.async_sampling = true;
    s.f1_target = 0.70;
    s.epochs_per_second = 2.5;
    s.chunk_epochs = 3;
  } else if (opt.workload == "train-deep") {
    // Hidden-width GEMMs dominate; f_in = 50 so layer-0-only changes do
    // little. Sync pool: the sampler sits on the critical path.
    d.name = "train-deep";
    d.num_vertices = 30000;
    d.avg_degree = 30.0;
    d.feature_dim = 50;
    d.num_classes = 121;
    d.mode = data::LabelMode::kMulti;
    c.hidden_dim = 256;
    c.num_layers = 3;
    c.async_sampling = false;
    c.p_inter = 2;
    s.loss_target = 0.50;
    s.epochs_per_second = 1.6;
    s.chunk_epochs = 2;
  } else if (opt.workload == "train-ooc") {
    // The same loop through the int8 codec, hot cache and mmap gather,
    // with SAINT loss weights and the pool-lookahead prefetch.
    d.name = "train-ooc";
    d.num_vertices = 60000;
    d.avg_degree = 12.0;
    d.homophily = 12.0;
    d.hub_overlay = true;
    d.hub_edges_per_vertex = 2;
    d.feature_dim = 200;
    d.num_classes = 107;
    d.mode = data::LabelMode::kMulti;
    c.hidden_dim = 64;
    c.num_layers = 2;
    c.async_sampling = true;
    c.saint_loss_norm = true;
    s.ooc = true;
    s.cache_mb = 16;
    s.loss_target = 0.30;
    s.epochs_per_second = 4.4;
    s.chunk_epochs = 4;
  } else {
    throw std::invalid_argument("unknown training workload " + opt.workload);
  }
  if (opt.smoke) {
    d.num_vertices = 2000;
    d.feature_dim = std::min<std::size_t>(d.feature_dim, 32);
    d.num_classes = std::min<std::uint32_t>(d.num_classes, 8);
    c.hidden_dim = 16;
    c.budget = 400;
    c.frontier_size = 100;
    c.saint_presamples = 8;
    s.cache_mb = 1;
    s.max_quality_epochs = 3;
    s.chunk_epochs = 1;
    // Tiny inputs cannot learn much; any progress reaches the target.
    if (s.f1_target > 0) s.f1_target = 0.01;
    if (s.loss_target > 0) s.loss_target = 100.0;
  }
  return s;
}

struct Prepared {
  data::Dataset ds;
  std::string feature_path;  // ooc only
};

Prepared prepare(const TrainSpec& s, const Options& opt) {
  Prepared p;
  p.ds = data::make_synthetic(s.data);
  if (s.ooc) {
    p.feature_path = opt.workdir + "/" + opt.workload + "-" +
                     std::to_string(opt.seed) + "-" +
                     std::to_string(::getpid()) + ".feat";
    std::filesystem::create_directories(opt.workdir);
    data::FeatureStore::write_file(p.feature_path, p.ds.features,
                                   data::FeatureDtype::kI8);
    // Out of core: training reads features only through the store.
    p.ds.features = tensor::Matrix();
  }
  return p;
}

/// A Trainer plus the store it reads (ooc); constructing one is set-up.
struct Instance {
  std::unique_ptr<data::FeatureStore> store;
  std::unique_ptr<gcn::Trainer> trainer;
};

Instance make_instance(const TrainSpec& s, const Prepared& p,
                       const gcn::TrainerConfig& cfg) {
  Instance inst;
  if (s.ooc) {
    data::FeatureStoreOptions fo;
    fo.cache_mb = s.cache_mb;
    const std::vector<graph::Vid> hot = graph::degree_order(p.ds.graph);
    inst.store = std::make_unique<data::FeatureStore>(
        data::FeatureStore::open_mmap(p.feature_path, fo, hot));
  }
  inst.trainer = std::make_unique<gcn::Trainer>(p.ds, cfg, inst.store.get());
  return inst;
}

/// Fractional epoch count at which `values` (one per epoch) first reaches
/// `target`, interpolating linearly from the previous epoch (from `start`
/// before the first). NaN when never reached.
double crossing(const std::vector<double>& values, double start, double target,
                bool rising) {
  double prev = start;
  for (std::size_t e = 0; e < values.size(); ++e) {
    const double v = values[e];
    if (rising ? v >= target : v <= target) {
      const double frac = v == prev ? 1.0 : (target - prev) / (v - prev);
      return static_cast<double>(e) + std::clamp(frac, 0.0, 1.0);
    }
    prev = v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// Set-up is short next to the run; its median over several repetitions
// keeps one slow repetition from moving the reported value.
constexpr int kSetupReps = 7;

int epochs_for(const TrainSpec& s, double seconds) {
  return std::max(2, static_cast<int>(std::lround(seconds * s.epochs_per_second)));
}

void run_e2e(const TrainSpec& s, const Prepared& p, const Options& opt,
             Report& report) {
  // The throughput window is cut into chunks of whole epochs, one train()
  // call each (a later call continues the same subgraph sequence and
  // optimizer state, so the losses are those of one long call), and
  // iterations/s is the median chunk rate: a burst of interference from
  // outside the process moves one chunk, not the result.
  gcn::TrainerConfig cfg = s.cfg;
  cfg.epochs = s.chunk_epochs;
  const int chunks = std::max(
      3, static_cast<int>(std::lround(opt.seconds * s.epochs_per_second /
                                      s.chunk_epochs)));

  std::vector<double> setup_s;
  Instance inst;
  for (int r = 0; r < kSetupReps; ++r) {
    inst = Instance();
    const auto t0 = Clock::now();
    inst = make_instance(s, p, cfg);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> losses;
  std::vector<double> chunk_ips;
  std::vector<double> chunk_ms_per_iter;
  std::int64_t iterations = 0;
  double wall = 0.0;
  for (int c = 0; c < chunks; ++c) {
    const auto t0 = Clock::now();
    const gcn::TrainResult r = inst.trainer->train();
    const double w = seconds_since(t0);
    wall += w;
    iterations += r.iterations;
    chunk_ips.push_back(static_cast<double>(r.iterations) / w);
    chunk_ms_per_iter.push_back(1e3 * w / static_cast<double>(r.iterations));
    for (const auto& rec : r.history) losses.push_back(rec.train_loss);
    report.count_failed(r.guard_trips + r.rollbacks);
  }
  inst = Instance();
  report.count_attempted(iterations);
  const double ips = median(chunk_ips);
  const double iters_per_epoch =
      static_cast<double>(iterations) / static_cast<double>(losses.size());

  // Quality phase (single-label): one epoch per train() call, then
  // evaluate(val), on a fresh Trainer with the same seed. It runs after
  // the window so the window never sees shapes the phase already tuned.
  std::vector<double> quality_losses;
  std::vector<double> val_f1;
  if (s.f1_target > 0) {
    gcn::TrainerConfig qcfg = s.cfg;
    qcfg.epochs = 1;
    Instance q = make_instance(s, p, qcfg);
    for (int e = 0; e < s.max_quality_epochs; ++e) {
      const gcn::TrainResult r = q.trainer->train();
      quality_losses.push_back(r.history.front().train_loss);
      val_f1.push_back(q.trainer->evaluate(p.ds.val_vertices));
      if (val_f1.back() >= s.f1_target) break;
    }
  }
  const double epochs_to_target =
      s.f1_target > 0 ? crossing(val_f1, 0.0, s.f1_target, /*rising=*/true)
                      : crossing(losses, losses.front(), s.loss_target,
                                 /*rising=*/false);
  const double time_to_target_s = epochs_to_target * iters_per_epoch / ips;

  report.metric("setup_s", median(setup_s), "s");
  report.metric("iters_per_s", ips, "1/s");
  report.metric("ms_per_iteration", median(chunk_ms_per_iter), "ms");
  report.metric("final_loss", losses.back(), "loss");
  report.metric("epochs_to_target", epochs_to_target, "epochs");
  report.metric("time_to_target_s", time_to_target_s, "s");
  if (s.f1_target > 0) {
    report.metric("time_to_f1_s", time_to_target_s, "s");
    report.metric("final_val_f1", val_f1.back(), "f1");
  }
  report.info("target", s.f1_target > 0 ? s.f1_target : s.loss_target);
  report.info("target_kind", s.f1_target > 0 ? "val_f1" : "train_loss");
  report.info("iterations", static_cast<double>(iterations));
  report.info("train_wall_s", wall);
  report.series("chunk_iters_per_s", chunk_ips);
  report.series("val_f1", val_f1);

  report.check("losses_finite",
               all_finite(losses) && all_finite(quality_losses));
  // Not a correctness check: a short window may end before the target.
  report.info("target_reached", std::isfinite(epochs_to_target) ? 1.0 : 0.0);
  if (!quality_losses.empty()) {
    // The window and the quality phase train from the same seed: their
    // overlapping epoch losses must be bit-equal.
    const std::size_t k = std::min(losses.size(), quality_losses.size());
    report.check("quality_losses_bit_equal",
                 std::memcmp(losses.data(), quality_losses.data(),
                             k * sizeof(double)) == 0);
  }
  report.series("epoch_loss", std::move(losses));
}

/// Both halves of the per-layer run. Same epochs and seed, so run.py can
/// require the traced replica's epoch losses to equal the Trainer's.
void run_layers(const TrainSpec& s, const Prepared& p, const Options& opt,
                Report& report) {
  LayerTrace in;
  in.ds = &p.ds;
  in.cfg = s.cfg;
  in.cfg.epochs = epochs_for(s, opt.seconds * 0.4);
  std::unique_ptr<data::FeatureStore> store;
  if (s.ooc) {
    data::FeatureStoreOptions fo;
    fo.cache_mb = s.cache_mb;
    store = std::make_unique<data::FeatureStore>(data::FeatureStore::open_mmap(
        p.feature_path, fo, graph::degree_order(p.ds.graph)));
  }
  in.train_store = store.get();
  if (opt.mode == "reference") {
    reference_layers(in, report);
    return;
  }
  // The engine replay serves the trained model from the dataset's own
  // features: a zero-copy view, or the same mmap store out of core.
  std::unique_ptr<data::FeatureStore> view;
  if (store != nullptr) {
    in.serve_store = store.get();
  } else {
    view = std::make_unique<data::FeatureStore>(
        data::FeatureStore::view(p.ds.features));
    in.serve_store = view.get();
  }
  util::Xoshiro256 rng = util::Xoshiro256::stream(opt.seed, 0x5e7e);
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint32_t> roots(4);
    for (auto& v : roots) v = rng.below(p.ds.num_vertices());
    in.requests.push_back(std::move(roots));
  }
  in.chrome_path = opt.workdir + "/traces/" + opt.workload + "-" +
                   std::to_string(opt.seed) + ".json";
  trace_layers(in, report);
}

}  // namespace

int run_train(const Options& opt, Report& report) {
  const TrainSpec spec = train_spec(opt);
  const auto t0 = Clock::now();
  Prepared prep = prepare(spec, opt);
  report.info("data_s", seconds_since(t0));
  report.info("vertices", static_cast<double>(prep.ds.num_vertices()));
  report.info("edges", static_cast<double>(prep.ds.graph.num_edges()));
  try {
    if (opt.mode == "e2e") {
      run_e2e(spec, prep, opt, report);
    } else {
      run_layers(spec, prep, opt, report);
    }
  } catch (...) {
    if (!prep.feature_path.empty()) std::filesystem::remove(prep.feature_path);
    throw;
  }
  if (!prep.feature_path.empty()) std::filesystem::remove(prep.feature_path);
  return 0;
}

}  // namespace bench
