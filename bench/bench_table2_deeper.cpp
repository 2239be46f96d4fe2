// Reproduces Table II: training-time speedup of the graph-sampling GCN
// over the parallelized layer-sampling baseline, across GCN depth (1-3
// layers) and core counts, on the Reddit analogue.
//
// The paper's headline: 1306x for a 3-layer model at 40 cores (their
// baseline is TensorFlow; ours is the same C++ substrate, so the measured
// ratios isolate the *algorithmic* gap — expect large growth with depth,
// smaller absolute numbers).

#include "baselines/layer_sampling.hpp"
#include "bench_common.hpp"
#include "gcn/trainer.hpp"

namespace {

using namespace gsgcn;

/// Per-epoch timing of ours at (layers, threads).
bench::TimingStats ours_epoch_stats(const data::Dataset& ds, int layers,
                                    int threads) {
  gcn::TrainerConfig cfg;
  cfg.hidden_dim = 64;
  cfg.num_layers = layers;
  cfg.epochs = 1;
  cfg.frontier_size = 300;
  cfg.budget = 1500;
  cfg.p_inter = threads;
  cfg.threads = threads;
  cfg.seed = util::global_seed();
  cfg.eval_every_epoch = false;
  gcn::Trainer t(ds, cfg);
  return bench::timing_stats([&] { (void)t.train(); }, 2);
}

/// Per-epoch timing of the layer-sampling baseline at (layers, threads).
bench::TimingStats sage_epoch_stats(const data::Dataset& ds, int layers,
                                    int threads) {
  baselines::LayerSamplingConfig cfg;
  cfg.hidden_dim = 64;
  cfg.num_layers = layers;
  cfg.epochs = 1;
  cfg.batch_size = 512;
  cfg.fanout = 10;
  cfg.threads = threads;
  cfg.seed = util::global_seed();
  cfg.eval_every_epoch = false;
  baselines::LayerSamplingTrainer t(ds, cfg);
  return bench::timing_stats([&] { (void)t.train(); }, layers >= 3 ? 1 : 2);
}

}  // namespace

int main() {
  bench::banner("Table II", "speedup vs parallelized layer sampling, by depth");
  bench::JsonEmitter json("Table II");
  const data::Dataset ds = data::make_preset("reddit-s");
  const auto threads = bench::thread_sweep();

  util::Table t({"layers", "cores", "ours s/epoch", "baseline s/epoch",
                 "speedup"});
  for (const int layers : {1, 2, 3}) {
    for (const int p : threads) {
      const bench::TimingStats ours = ours_epoch_stats(ds, layers, p);
      const bench::TimingStats sage = sage_epoch_stats(ds, layers, p);
      t.row()
          .cell(layers)
          .cell(p)
          .cell(ours.median_s, 3)
          .cell(sage.median_s, 3)
          .cell(util::speedup_str(sage.median_s / ours.median_s));
      std::printf("  L=%d p=%-3d ours %s | baseline %s\n", layers, p,
                  ours.str().c_str(), sage.str().c_str());
      json.record("speedup")
          .field("layers", layers)
          .field("cores", p)
          .field("ours", ours)
          .field("baseline", sage)
          .field("speedup", sage.median_s / ours.median_s);
    }
  }
  t.print(
      "Table II analogue — reddit-s "
      "(paper vs TF: 2-layer 7.7x–37.4x, 3-layer 335x–1306x; same-substrate "
      "ratios here isolate the algorithmic gap and grow sharply with depth)");
  return 0;
}
