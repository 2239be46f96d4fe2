// Reproduces Figure 2: accuracy (F1-micro) vs sequential training time,
// our graph-sampling GCN vs GraphSAGE-style layer sampling vs batched
// (full-batch) GCN, on the four dataset analogues — all single-threaded,
// as in the paper's Section VI-B.
//
// Also prints the paper's derived metric: serial training-time speedup to
// reach the accuracy threshold a0 − 0.0025, where a0 is the best baseline
// accuracy (paper reports 1.9× / 7.8× / 4.7× / 2.1×).

#include <algorithm>

#include "baselines/fullbatch.hpp"
#include "baselines/layer_sampling.hpp"
#include "bench_common.hpp"
#include "gcn/trainer.hpp"

namespace {

using namespace gsgcn;

struct Series {
  std::string method;
  gcn::TrainResult result;
};

/// First time (seconds) at which the val-F1 history reaches `threshold`;
/// negative if never reached.
double time_to_threshold(const gcn::TrainResult& r, double threshold) {
  for (const auto& rec : r.history) {
    if (rec.val_f1 >= threshold) return std::max(rec.cumulative_seconds, 1e-9);
  }
  return -1.0;
}

}  // namespace

int main() {
  bench::banner("Figure 2", "time-accuracy, sequential (threads = 1)");
  bench::JsonEmitter json("Figure 2");
  const std::uint64_t seed = util::global_seed();
  // Half the standard preset size: Figure 2 runs three trainers per
  // dataset on one thread.
  const double scale = util::dataset_scale() * 0.5;

  util::Table speedups({"dataset", "best baseline", "a0", "threshold",
                        "ours s", "baseline s", "serial speedup"});

  for (const auto& name : data::preset_names()) {
    const data::Dataset ds = data::make_preset(name, scale);
    std::vector<Series> series;

    {
      gcn::TrainerConfig cfg;
      cfg.hidden_dim = 64;
      // Each epoch is only |V_train|/budget weight updates and costs
      // milliseconds; run enough of them that convergence is visible.
      cfg.epochs = 40;
      cfg.frontier_size = 300;
      cfg.budget = 1500;
      cfg.degree_cap = name == "amazon-s" ? 30 : 0;
      cfg.p_inter = 1;
      cfg.threads = 1;
      cfg.seed = seed;
      gcn::Trainer t(ds, cfg);
      series.push_back({"graph-sampling (ours)", t.train()});
    }
    {
      baselines::LayerSamplingConfig cfg;
      cfg.hidden_dim = 64;
      cfg.epochs = 6;
      cfg.batch_size = 512;
      cfg.fanout = 10;
      cfg.threads = 1;
      cfg.seed = seed;
      baselines::LayerSamplingTrainer t(ds, cfg);
      series.push_back({"GraphSAGE (layer sampling)", t.train()});
    }
    {
      baselines::FullBatchConfig cfg;
      cfg.hidden_dim = 64;
      cfg.epochs = 40;
      cfg.threads = 1;
      cfg.seed = seed;
      baselines::FullBatchTrainer t(ds, cfg);
      series.push_back({"batched GCN (full batch)", t.train()});
    }

    util::Table curve({"method", "epoch", "train s", "val F1"});
    for (const auto& s : series) {
      for (const auto& rec : s.result.history) {
        curve.row()
            .cell(s.method)
            .cell(rec.epoch)
            .cell(rec.cumulative_seconds, 3)
            .cell(rec.val_f1, 4);
        json.record("curve")
            .field("dataset", name)
            .field("method", s.method)
            .field("epoch", rec.epoch)
            .field("epoch_seconds", rec.epoch_seconds)
            .field("cumulative_seconds", rec.cumulative_seconds)
            .field("val_f1", rec.val_f1);
      }
    }
    curve.print("Figure 2 series — " + name);

    // Speedup to threshold (paper Section VI-B).
    double a0 = 0.0;
    std::size_t best = 1;
    for (std::size_t i = 1; i < series.size(); ++i) {
      if (series[i].result.final_val_f1 > a0) {
        a0 = series[i].result.final_val_f1;
        best = i;
      }
    }
    const double threshold = a0 - 0.0025;
    const double t_base = time_to_threshold(series[best].result, threshold);
    const double t_ours = time_to_threshold(series[0].result, threshold);
    speedups.row()
        .cell(name)
        .cell(series[best].method)
        .cell(a0, 4)
        .cell(threshold, 4)
        .cell(t_ours, 3)
        .cell(t_base, 3)
        .cell(t_ours > 0 && t_base > 0 ? util::speedup_str(t_base / t_ours)
                                       : std::string("n/a"));
    json.record("serial_speedup")
        .field("dataset", name)
        .field("best_baseline", series[best].method)
        .field("a0", a0)
        .field("ours_seconds", t_ours)
        .field("baseline_seconds", t_base);
  }
  speedups.print(
      "Serial training speedup to baseline-accuracy threshold "
      "(paper: 1.9x PPI, 7.8x Reddit, 4.7x Yelp, 2.1x Amazon)");
  return 0;
}
