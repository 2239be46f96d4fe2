// Tiled SpMM over sampled-subgraph shapes, with its bandwidth ceiling
// (google-benchmark).
//
// Three name families over |V| ∈ {6000, 9000} × f ∈ {64..512} × every
// aggregator:
//   BM_SpmmTiled/...          tiled kernel, default options: Q =
//                             min{C, ⌈f/32⌉} (what training runs)
//   BM_SpmmTiledAnalytic/...  tiled kernel pinned to Theorem 2's Q*
//                             (detected L2)
//   BM_SpmmTiledBest/...      tiled kernel at the fastest of {Q*, Q*/2,
//                             2Q*, C}, timed here
// Counters: GFLOPS and model_gbps from the obs::spmm_work model,
// triad_gbps and frac_triad (model_gbps ÷ triad_gbps), the measured PMU
// columns, and the q / q_analytic partition counts. The perf-smoke CI
// job gates the median frac_triad of BM_SpmmTiled (a floor, see
// scripts/check_perf_regression.py --floor) and the pair ratio tiled vs
// best-timed (every shape >= 0.95x — the cost model must never lose more
// than 5% to a measured sweep).
//
// Every time in a record — real_time, GFLOPS, model_gbps, items/s — is
// the configuration's fastest call in a per-shape round-robin over every
// configuration (shape_times), reported as manual time: on a shared
// multi-core host, stalls and load shifts lasting seconds swamp a mean,
// while round-robin minima see the same host state. The round-robin's
// last slot is a warm STREAM triad at the shape's input size and thread
// count, so the kernel and its ceiling are timed under the same host
// state in the same process. Two families that run the same Q share one
// measurement. The single timed-loop iteration runs the kernel once more
// for the PMU columns only.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "gbench_common.hpp"
#include "graph/generators.hpp"
#include "obs/perf.hpp"
#include "obs/roofline.hpp"
#include "propagation/feature_partitioned.hpp"
#include "propagation/spmm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace gsgcn;

enum class Mode { kTiled, kTiledAnalytic, kTiledBest };

constexpr int kRounds = 40;

struct Shape {
  graph::CsrGraph g;
  tensor::Matrix in;
  tensor::Matrix out;
  propagation::FeaturePartitionOptions opts;  // default: Q = min{C, ⌈f/32⌉}

  Shape(graph::Vid n, std::size_t f, propagation::AggregatorKind kind) {
    util::Xoshiro256 rng(7 + n);
    g = graph::erdos_renyi(n, static_cast<graph::Eid>(n) * 15, rng);
    util::Xoshiro256 feat_rng(21);
    in = tensor::Matrix::gaussian(n, f, 1.0f, feat_rng);
    out = tensor::Matrix(n, f);
    opts.aggregator = kind;
  }

  int run(int q) {
    propagation::FeaturePartitionOptions o = opts;
    o.force_q = q;
    return propagation::propagate_feature_partitioned(g, in, out, o);
  }
};

/// STREAM triad a = b + s·c over three arrays of `n` floats, one
/// contiguous block per thread: the bandwidth ceiling of a kernel whose
/// input is `n` floats, on `threads` threads. Timed warm (right after an
/// untimed pass), as the SpMM re-reads each input row once per incident
/// edge and so streams mostly from cache.
struct Triad {
  std::vector<float> a, b, c;
  int threads;

  Triad(std::size_t n, int threads)
      : a(n, 0.0f), b(n, 1.0f), c(n, 2.0f), threads(threads) {}

  double bytes() const { return 3.0 * sizeof(float) * a.size(); }

  void run() {
    float* pa = a.data();
    const float* pb = b.data();
    const float* pc = c.data();
    util::parallel_for_ranges(
        static_cast<std::int64_t>(a.size()), threads,
        [=](std::int64_t begin, std::int64_t end) {
          for (std::int64_t j = begin; j < end; ++j) {
            pa[j] = pb[j] + 3.0f * pc[j];
          }
        });
  }
};

struct ShapeTimes {
  int q_tiled = 0;     // default options
  int q_analytic = 0;  // Theorem 2's Q*
  int q_best = 0;      // fastest of {Q*, Q*/2, 2Q*, C}
  double tiled_s = 0.0;
  double analytic_s = 0.0;
  double best_s = 0.0;
  double triad_gbps = 0.0;  // same-run bandwidth ceiling
};

/// Fastest call per configuration of one shape, timed round-robin over
/// the tiled kernel at every candidate Q and the triad at the shape's
/// input size. Memoized: the three families of a shape share it.
const ShapeTimes& shape_times(graph::Vid n, std::size_t f,
                              propagation::AggregatorKind kind) {
  static std::map<std::tuple<graph::Vid, std::size_t, int>, ShapeTimes> memo;
  const auto key = std::make_tuple(n, f, static_cast<int>(kind));
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;

  Shape s(n, f, kind);
  ShapeTimes t;
  // A caller-supplied S_cache pins Theorem 2's Q*.
  propagation::FeaturePartitionOptions analytic = s.opts;
  analytic.cache_bytes = util::private_cache_bytes();
  t.q_analytic =
      propagation::propagate_feature_partitioned(s.g, s.in, s.out, analytic);
  t.q_tiled = s.run(0);
  const int c = util::resolve_threads(s.opts.threads);
  const int fmax = static_cast<int>(std::max<std::size_t>(f, 1));
  std::vector<int> qs;
  const auto add = [&](int q) {
    q = std::clamp(q, 1, fmax);
    if (std::find(qs.begin(), qs.end(), q) == qs.end()) qs.push_back(q);
  };
  for (const int q : {t.q_analytic, t.q_analytic / 2, t.q_analytic * 2, c}) {
    add(q);
  }
  // qs[0..n_cands) are the sweep candidates; the default Q joins after
  // them when it is none of them. The last slot is the triad.
  const std::size_t n_cands = qs.size();
  add(t.q_tiled);
  Triad triad(s.in.size(), c);
  std::vector<double> best(qs.size() + 1,
                           std::numeric_limits<double>::infinity());
  for (int round = 0; round <= kRounds; ++round) {  // round 0 warms up
    for (std::size_t i = 0; i <= qs.size(); ++i) {
      const bool is_triad = i == qs.size();
      if (is_triad) triad.run();  // untimed pass: the timed one runs warm
      const util::Timer timer;
      if (is_triad) {
        triad.run();
      } else {
        s.run(qs[i]);
      }
      if (round > 0) best[i] = std::min(best[i], timer.seconds());
    }
  }
  const auto time_of = [&](int q) {
    return best[static_cast<std::size_t>(
        std::find(qs.begin(), qs.end(), q) - qs.begin())];
  };
  t.tiled_s = time_of(t.q_tiled);
  t.analytic_s = time_of(t.q_analytic);
  t.triad_gbps = triad.bytes() * 1e-9 / best.back();
  t.q_best = qs.front();
  t.best_s = best.front();
  for (std::size_t i = 1; i < n_cands; ++i) {
    if (best[i] < t.best_s) {  // strict <: ties keep the earlier candidate
      t.best_s = best[i];
      t.q_best = qs[i];
    }
  }
  return memo.emplace(key, t).first->second;
}

void run_spmm(benchmark::State& state, graph::Vid n, std::size_t f,
              propagation::AggregatorKind kind, Mode mode) {
  const ShapeTimes& t = shape_times(n, f, kind);
  int q = t.q_tiled;
  double secs = t.tiled_s;
  switch (mode) {
    case Mode::kTiled: break;
    case Mode::kTiledAnalytic: q = t.q_analytic; secs = t.analytic_s; break;
    case Mode::kTiledBest: q = t.q_best; secs = t.best_s; break;
  }
  Shape s(n, f, kind);
  const obs::PerfReading pr = obs::perf_read_thread();
  for (auto _ : state) {
    s.run(q);
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
    state.SetIterationTime(secs);
  }
  const obs::Work work =
      obs::spmm_work(static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(s.g.num_edges()),
                     static_cast<std::int64_t>(f));
  state.counters["GFLOPS"] = work.flops * 1e-9 / secs;
  const double model_gbps = work.bytes * 1e-9 / secs;
  state.counters["model_gbps"] = model_gbps;
  state.counters["triad_gbps"] = t.triad_gbps;
  state.counters["frac_triad"] = model_gbps / t.triad_gbps;
  state.counters["ai_model"] =
      work.bytes > 0.0 ? work.flops / work.bytes : 0.0;
  state.counters["q"] = static_cast<double>(q);
  state.counters["q_analytic"] = static_cast<double>(t.q_analytic);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.g.num_edges() * static_cast<std::int64_t>(f));
  bench::set_measured_counters(state, pr, work);
}

const char* family_name(Mode mode) {
  switch (mode) {
    case Mode::kTiled: return "BM_SpmmTiled";
    case Mode::kTiledAnalytic: return "BM_SpmmTiledAnalytic";
    case Mode::kTiledBest: return "BM_SpmmTiledBest";
  }
  return "?";
}

void register_benchmarks() {
  for (const Mode mode :
       {Mode::kTiled, Mode::kTiledAnalytic, Mode::kTiledBest}) {
    for (const graph::Vid n : {6000u, 9000u}) {
      for (const std::size_t f : {64u, 128u, 256u, 512u}) {
        for (const auto kind : {propagation::AggregatorKind::kMean,
                                propagation::AggregatorKind::kSum,
                                propagation::AggregatorKind::kSymmetric}) {
          const std::string name = std::string(family_name(mode)) + "/" +
                                   std::to_string(n) + "/f" +
                                   std::to_string(f) + "/" +
                                   propagation::aggregator_name(kind);
          benchmark::RegisterBenchmark(
              name.c_str(), [n, f, kind, mode](benchmark::State& state) {
                run_spmm(state, n, f, kind, mode);
              })
              ->UseManualTime()
              ->Iterations(1);
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  return gsgcn::bench::gbench_main(argc, argv, "BENCH_propagation.json");
}
