// Reproduces Figure 4: sampling parallelism.
//
//   A. sampling throughput speedup vs p_inter (independent sampler
//      instances in a SubgraphPool, exactly the training scheduler's
//      configuration — includes subgraph induction, as in training)
//   B. AVX2 (intra-subgraph, the paper's p_intra = 8) gain over a
//      non-vectorized build of the same sampler, raw sampling only,
//      across graph densities — the Dashboard's per-pop memory ops are
//      O(deg), so the vector gain grows with average degree.
//
// The paper reports near-linear A-scaling to 20 cores (NUMA dents it
// after) and ~4x average B-gain on dual-Xeon with ICC; expect a smaller
// B-gain here (modern GCC auto-vectorizes more of the scalar build, and
// the scaled graphs are sparser).

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "sampling/frontier_dashboard.hpp"
#include "sampling/pool.hpp"

namespace {

using namespace gsgcn;

/// Wall time to sample rounds·p_inter subgraphs with a pool.
double pool_seconds(const graph::CsrGraph& g, int p_inter, int rounds,
                    graph::Vid frontier, graph::Vid budget) {
  sampling::PoolOptions options;
  options.p_inter = p_inter;
  options.seed = util::global_seed();
  sampling::SubgraphPool pool(
      g,
      [&](int) {
        sampling::FrontierParams p;
        p.frontier_size = frontier;
        p.budget = budget;
        return std::make_unique<sampling::DashboardFrontierSampler>(g, p);
      },
      options);
  pool.refill();  // warm
  pool.reset_accounting();
  for (int r = 0; r < rounds; ++r) pool.refill();
  return pool.sampling_seconds();
}

/// ms per raw sample_vertices() call (no induction).
double sampler_ms(const graph::CsrGraph& g, sampling::IntraMode mode,
                  graph::Vid m, graph::Vid n) {
  sampling::FrontierParams p;
  p.frontier_size = m;
  p.budget = n;
  sampling::DashboardFrontierSampler s(g, p, mode);
  util::Xoshiro256 rng(util::global_seed());
  (void)s.sample_vertices(rng);  // warm
  util::Timer t;
  const int reps = 30;
  for (int i = 0; i < reps; ++i) (void)s.sample_vertices(rng);
  return t.ms() / reps;
}

}  // namespace

int main() {
  bench::banner("Figure 4", "sampling scalability & AVX gain");
  bench::JsonEmitter json("Figure 4");
  const int rounds = static_cast<int>(util::env_int("GSGCN_FIG4_ROUNDS", 4));

  // --- A: inter-subgraph parallelism (p_inter sweep) ---
  for (const auto& name : data::preset_names()) {
    const data::Dataset ds = data::make_preset(name);
    const graph::Vid m = std::min<graph::Vid>(500, ds.num_vertices() / 8);
    const graph::Vid n = std::min<graph::Vid>(4000, ds.num_vertices() / 2);
    const double t1 = pool_seconds(ds.graph, 1, rounds, m, n);
    const double base_rate = rounds / t1;
    util::Table ta({"p_inter", "subgraphs/s", "A sampling speedup"});
    for (const int p : bench::thread_sweep()) {
      const double t = p == 1 ? t1 : pool_seconds(ds.graph, p, rounds, m, n);
      const double rate = rounds * static_cast<double>(p) / t;
      ta.row().cell(p).cell(rate, 1).cell(util::speedup_str(rate / base_rate));
      json.record("inter_parallelism")
          .field("preset", name)
          .field("p_inter", p)
          .field("subgraphs_per_second", rate)
          .field("speedup", rate / base_rate);
    }
    ta.print("Figure 4A — " + name + " (m=" + std::to_string(m) + ", n=" +
             std::to_string(n) + "; paper: near-linear to 20 cores)");
  }

  // --- B: AVX gain vs graph density (p_intra = 8 vector lanes) ---
  {
    util::Xoshiro256 grng(util::global_seed());
    util::Table tb({"avg degree", "scalar ms", "AVX2 ms", "B AVX gain"});
    for (const graph::Eid deg : {15, 30, 60, 150}) {
      const auto g = graph::erdos_renyi(
          20000, static_cast<graph::Eid>(10000) * deg, grng);
      const double ms_scalar =
          sampler_ms(g, sampling::IntraMode::kScalar, 1000, 8000);
      const double ms_avx =
          sampler_ms(g, sampling::IntraMode::kAvx2, 1000, 8000);
      tb.row()
          .cell(static_cast<std::int64_t>(deg))
          .cell(ms_scalar, 3)
          .cell(ms_avx, 3)
          .cell(util::speedup_str(ms_scalar / ms_avx));
      json.record("avx_gain")
          .field("avg_degree", static_cast<std::int64_t>(deg))
          .field("scalar_ms", ms_scalar)
          .field("avx2_ms", ms_avx)
          .field("gain", ms_scalar / ms_avx);
    }
    tb.print(
        "Figure 4B — AVX2 gain on raw frontier sampling (m=1000, n=8000, "
        "ER graphs; paper: ~4x average on dual-Xeon/ICC — gain grows with "
        "degree because Dashboard memory ops are O(deg))");
  }
  return 0;
}
