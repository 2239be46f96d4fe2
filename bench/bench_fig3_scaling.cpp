// Reproduces Figure 3: strong-scaling of one training iteration and its
// components over thread counts, for two hidden dimensions.
//
//   A. overall iteration speedup (sample + forward + backward + Adam)
//   B. feature-propagation speedup
//   C. weight-application (GEMM) speedup
//   D. execution-time breakdown per thread count, from the trainer's
//      phase ledger (obs/phase.hpp): weight application (gemm +
//      elementwise), feature propagation (spmm), sampling (pool pop,
//      which runs the sampler inline in sync mode), the other ledger ops
//      (gather, loss, update) and the unattributed remainder
//
// The paper sweeps 1..40 Xeon cores at hidden = 512 and 1024; the sweep
// here covers GSGCN_MAX_THREADS and hidden = {128, 256} by default (the
// scaled datasets are proportionally smaller — override with
// GSGCN_HIDDEN, e.g. GSGCN_HIDDEN=512,1024).

#include <sstream>

#include "bench_common.hpp"
#include "gcn/trainer.hpp"

namespace {

using namespace gsgcn;

std::vector<int> hidden_dims() {
  const std::string spec = util::env_string("GSGCN_HIDDEN", "128,256");
  std::vector<int> dims;
  std::istringstream is(spec);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (!tok.empty()) dims.push_back(std::stoi(tok));
  }
  return dims.empty() ? std::vector<int>{128} : dims;
}

struct Phases {
  double total;         // kept-epoch wall time
  double sample;        // pop
  double featprop;      // spmm
  double weight;        // gemm + elementwise
  double other;         // gather + loss + update
  double unattributed;  // total minus the ledger
};

/// Run a fixed number of training iterations at `threads`, return phase
/// times per iteration.
Phases run(const data::Dataset& ds, int hidden, int threads, int iterations) {
  gcn::TrainerConfig cfg;
  cfg.hidden_dim = static_cast<std::size_t>(hidden);
  cfg.epochs = 1;
  cfg.frontier_size = 300;
  cfg.budget = 1500;
  cfg.p_inter = threads;
  cfg.threads = threads;
  cfg.seed = util::global_seed();
  cfg.eval_every_epoch = false;
  gcn::Trainer trainer(ds, cfg);
  // One epoch = |V_train|/budget iterations; repeat epochs until we have
  // at least `iterations` weight updates.
  std::int64_t iters = 0;
  double wall = 0.0;
  double unattributed = 0.0;
  obs::Ledger ledger;
  while (iters < iterations) {
    const gcn::TrainResult r = trainer.train();
    iters += r.iterations;
    wall += r.train_seconds + r.sampler_wait_seconds;
    unattributed += r.unattributed_seconds;
    ledger += r.phases;
  }
  const double n = static_cast<double>(iters);
  using obs::Op;
  return {wall / n,
          ledger.op_seconds(Op::kPop) / n,
          ledger.op_seconds(Op::kSpmm) / n,
          (ledger.op_seconds(Op::kGemm) + ledger.op_seconds(Op::kElementwise)) / n,
          (ledger.op_seconds(Op::kGather) + ledger.op_seconds(Op::kLoss) +
           ledger.op_seconds(Op::kUpdate)) / n,
          unattributed / n};
}

}  // namespace

int main() {
  bench::banner("Figure 3", "training scaling & execution breakdown");
  bench::JsonEmitter json("Figure 3");
  const auto threads = bench::thread_sweep();
  const int iterations =
      static_cast<int>(util::env_int("GSGCN_FIG3_ITERS", 6));

  for (const int hidden : hidden_dims()) {
    for (const auto& name : data::preset_names()) {
      const data::Dataset ds = data::make_preset(name);
      const Phases base = run(ds, hidden, 1, iterations);

      util::Table t({"threads", "iter ms", "A iter spdup", "B featprop spdup",
                     "C weight spdup", "D breakdown w/f/s/o/u (%)"});
      for (const int p : threads) {
        const Phases ph = p == 1 ? base : run(ds, hidden, p, iterations);
        const auto pct = [&ph](double x) { return 100.0 * x / ph.total; };
        char breakdown[64];
        std::snprintf(breakdown, sizeof(breakdown), "%.0f/%.0f/%.0f/%.0f/%.1f",
                      pct(ph.weight), pct(ph.featprop), pct(ph.sample),
                      pct(ph.other), pct(ph.unattributed));
        t.row()
            .cell(p)
            .cell(1e3 * ph.total, 2)
            .cell(util::speedup_str(base.total / ph.total))
            .cell(util::speedup_str(base.featprop / ph.featprop))
            .cell(util::speedup_str(base.weight / ph.weight))
            .cell(breakdown);
        json.record("scaling")
            .field("preset", name)
            .field("hidden", hidden)
            .field("threads", p)
            .field("iter_seconds", ph.total)
            .field("sample_seconds", ph.sample)
            .field("featprop_seconds", ph.featprop)
            .field("weight_seconds", ph.weight)
            .field("other_seconds", ph.other)
            .field("unattributed_seconds", ph.unattributed)
            .field("iter_speedup", base.total / ph.total);
      }
      t.print("Figure 3 — " + name + ", hidden=" + std::to_string(hidden) +
              " (paper: ~20x iteration / ~25x featprop / ~16x weight at 40 "
              "cores)");
    }
  }
  std::printf(
      "\nNote: on a host with few cores the speedup columns flatten at the\n"
      "hardware parallelism; the paper's shape needs a multi-socket Xeon.\n");
  return 0;
}
