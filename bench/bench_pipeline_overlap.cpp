// Async producer-consumer pipeline overlap bench: the training scheduler
// of Algorithm 5 with sampling moved onto a background producer thread.
//
// For each OMP_NUM_THREADS in the sweep, trains the same model twice —
// synchronous pool (inline refills stall the trainer every p_inter
// iterations) vs asynchronous pool (bounded queue, producer overlaps
// sampling with compute) — and reports throughput, stall counts, and the
// consumer-side sampler wait. Expected shape: async stalls drop to 0
// after the (prefilled) warmup, sampler wait collapses toward 0, and
// iteration throughput is never below sync. Both runs consume the
// identical subgraph sequence (slot-derived RNG streams), so the loss
// trajectories match and the comparison is purely systems-side.
//
// GSGCN_OVERLAP_ITERS overrides the per-configuration iteration floor.

#include "bench_common.hpp"
#include "gcn/trainer.hpp"
#include "obs/perf.hpp"

namespace {

using namespace gsgcn;

struct Run {
  double wall_seconds = 0.0;
  gcn::TrainResult result;
  std::vector<obs::PhasePerf> phases;  // per-phase roofline attribution
};

/// Phase lookup; a default (zero) PhasePerf when the build compiled the
/// perf macros out or the phase never ran.
obs::PhasePerf find_phase(const std::vector<obs::PhasePerf>& phases,
                          const char* name) {
  for (const obs::PhasePerf& p : phases) {
    if (p.name == name) return p;
  }
  return obs::PhasePerf{};
}

Run run(const data::Dataset& ds, int threads, bool async, int iterations) {
  gcn::TrainerConfig cfg;
  cfg.hidden_dim = 128;
  cfg.epochs = 1;
  cfg.frontier_size = 300;
  cfg.budget = 1500;
  cfg.p_inter = threads;
  cfg.threads = threads;
  cfg.async_sampling = async;
  cfg.seed = util::global_seed();
  cfg.eval_every_epoch = false;
  gcn::Trainer trainer(ds, cfg);
  Run total;
  // Fresh per-phase counters for this configuration; the scrape below
  // happens after train() returns, i.e. with the producer joined.
  obs::PerfProfiler::instance().reset();
  // One epoch = |V_train|/budget iterations; repeat epochs until at least
  // `iterations` weight updates so short runs don't drown in noise.
  while (total.result.iterations < iterations) {
    const util::Timer wall;
    const gcn::TrainResult r = trainer.train();
    total.wall_seconds += wall.seconds();
    total.result.iterations += r.iterations;
    total.result.train_seconds += r.train_seconds;
    total.result.sampler_wait_seconds += r.sampler_wait_seconds;
    total.result.sample_seconds += r.sample_seconds;
    total.result.pool_stalls += r.pool_stalls;
    total.result.pool_cold_starts += r.pool_cold_starts;
  }
  total.phases = obs::PerfProfiler::instance().scrape();
  return total;
}

}  // namespace

int main() {
  bench::banner("pipeline overlap",
                "sync vs async subgraph pipeline (Algorithm 5 scheduler)");
  bench::JsonEmitter json("pipeline overlap");
  const int iterations =
      static_cast<int>(util::env_int("GSGCN_OVERLAP_ITERS", 8));
  // Per-phase hardware-counter attribution rides along in the JSON
  // records (measured where the PMU allows, wall-clock + work models
  // otherwise — obs/perf.hpp), from the trainer's phase scopes.
  obs::PerfProfiler::instance().enable();
  const data::Dataset ds = data::make_preset("ppi-s");

  util::Table t({"threads", "mode", "iters/s", "train s/iter",
                 "sampler wait s/iter", "stalls", "cold starts",
                 "async speedup"});
  for (const int p : bench::thread_sweep()) {
    const Run sync_run = run(ds, p, /*async=*/false, iterations);
    const Run async_run = run(ds, p, /*async=*/true, iterations);
    for (const bool async : {false, true}) {
      const Run& r = async ? async_run : sync_run;
      const double iters = static_cast<double>(r.result.iterations);
      t.row()
          .cell(p)
          .cell(async ? "async" : "sync")
          .cell(iters / r.wall_seconds, 2)
          .cell(r.result.train_seconds / iters, 5)
          .cell(r.result.sampler_wait_seconds / iters, 5)
          .cell(static_cast<std::int64_t>(r.result.pool_stalls))
          .cell(static_cast<std::int64_t>(r.result.pool_cold_starts))
          .cell(async ? util::speedup_str(sync_run.wall_seconds /
                                          r.wall_seconds)
                      : std::string("-"));
      json.record("overlap")
          .field("threads", p)
          .field("async", async)
          .field("iterations", r.result.iterations)
          .field("wall_seconds", r.wall_seconds)
          .field("train_seconds", r.result.train_seconds)
          .field("sampler_wait_seconds", r.result.sampler_wait_seconds)
          .field("sample_seconds", r.result.sample_seconds)
          .field("pool_stalls", r.result.pool_stalls)
          .field("pool_cold_starts", r.result.pool_cold_starts)
          .field("iters_per_second", iters / r.wall_seconds)
          .field("async_speedup",
                 async ? sync_run.wall_seconds / r.wall_seconds : 1.0);
      const obs::PhasePerf gemm = find_phase(r.phases, "gemm");
      const obs::PhasePerf prop = find_phase(r.phases, "spmm");
      json.record("overlap_perf")
          .field("threads", p)
          .field("async", async)
          .field("pmu_available", gemm.available)
          .field("gemm_gflops", gemm.gflops())
          .field("gemm_ai", gemm.arithmetic_intensity())
          .field("gemm_ipc", gemm.ipc())
          .field("gemm_llc_miss_rate", gemm.llc_miss_rate())
          .field("propagate_gflops", prop.gflops())
          .field("propagate_model_gbps", prop.model_gbps())
          .field("propagate_measured_gbps", prop.measured_gbps());
    }
  }
  t.print(
      "Pipeline overlap — ppi-s, hidden=128 (expect async stalls = 0 and "
      "sampler wait ~ 0 once the producer keeps up)");
  std::printf(
      "\nNote: sync-mode \"stalls\" count the inline refills the async\n"
      "pipeline exists to hide; both modes pop the identical subgraph\n"
      "sequence, so the comparison is purely scheduling.\n");
  return 0;
}
