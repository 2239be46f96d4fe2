// Kernel microbenchmarks (google-benchmark): the primitives everything
// else is built from — GEMM orientations, sparse mean aggregation,
// subgraph induction, dashboard ops, and a full frontier sample.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "gbench_common.hpp"
#include "obs/perf.hpp"
#include "obs/roofline.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "propagation/feature_partitioned.hpp"
#include "propagation/spmm.hpp"
#include "sampling/frontier_dashboard.hpp"
#include "tensor/gemm.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace gsgcn;

tensor::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return tensor::Matrix::gaussian(r, c, 1.0f, rng);
}

using gsgcn::bench::peak_flops_per_cycle;
using gsgcn::bench::set_measured_counters;

/// Attach GFLOP/s and fraction-of-peak counters for a 2·m·k·n-flop GEMM,
/// plus the measured PMU columns for the timed loop.
void set_gemm_counters(benchmark::State& state, std::size_t m, std::size_t k,
                       std::size_t n, const obs::PerfReading& loop_begin) {
  const obs::Work work =
      obs::gemm_work(static_cast<std::int64_t>(m),
                     static_cast<std::int64_t>(k),
                     static_cast<std::int64_t>(n), false);
  const double flops = work.flops;
  state.counters["GFLOPS"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  const double peak_gflops = peak_flops_per_cycle() *
                             benchmark::CPUInfo::Get().cycles_per_second *
                             1e-9 * gsgcn::util::max_threads();
  state.counters["frac_peak"] = benchmark::Counter(
      flops / peak_gflops * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["ai_model"] =
      work.bytes > 0.0 ? work.flops / work.bytes : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(m * k * n));
  set_measured_counters(state, loop_begin, work);
}

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Matrix a = random_matrix(n, n, 1);
  const tensor::Matrix b = random_matrix(n, n, 2);
  tensor::Matrix c(n, n);
  const obs::PerfReading pr = obs::perf_read_thread();
  for (auto _ : state) {
    tensor::gemm_nn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n, pr);
}
BENCHMARK(BM_GemmNN)->Arg(128)->Arg(256)->Arg(512);

// ---- Packed GEMM on sampled-subgraph shapes --------------------------------
//
// The weight-application GEMM of one GCN layer on a sampled subgraph is
// (|V_sub| × f) · (f × f): |V_sub| lands in the 6000–9000 range for the
// paper's frontier sampler budget, f is the feature/hidden width. Every
// BM_GemmPacked* shape runs at max threads; the perf-smoke CI job gates
// the median of their frac_peak counters (GFLOP/s over the ISA's flops
// per cycle × the reported clock × threads) with
// scripts/check_perf_regression.py --floor.

void BM_GemmPackedNN(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto f = static_cast<std::size_t>(state.range(1));
  const tensor::Matrix a = random_matrix(m, f, 40);
  const tensor::Matrix b = random_matrix(f, f, 41);
  tensor::Matrix c(m, f);
  const obs::PerfReading pr = obs::perf_read_thread();
  for (auto _ : state) {
    tensor::gemm_nn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, m, f, f, pr);
}

void subgraph_shapes(benchmark::internal::Benchmark* b) {
  for (const std::int64_t m : {6000, 9000}) {
    for (const std::int64_t f : {64, 128, 256, 512}) b->Args({m, f});
  }
}
BENCHMARK(BM_GemmPackedNN)->Apply(subgraph_shapes);

// TN and NT shapes, so all three packed orientations are gated (TN =
// weight gradients, NT = input gradients). TN takes (K, m, n):
// C (m×n) = Aᵀ·B with A K×m and B K×n. Besides the square
// 8000×128 shape, it runs the GCN's weight-gradient shapes at K = 6000
// subgraph rows, where m (the layer's input width, 64–602) is the only
// dimension the threads split.
void BM_GemmPackedTN(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const tensor::Matrix a = random_matrix(k, m, 42);  // used transposed
  const tensor::Matrix b = random_matrix(k, n, 43);
  tensor::Matrix c(m, n);
  const obs::PerfReading pr = obs::perf_read_thread();
  for (auto _ : state) {
    tensor::gemm_tn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, m, k, n, pr);
}

void tn_shapes(benchmark::internal::Benchmark* b) {
  b->Args({8000, 128, 128});
  b->Args({6000, 64, 64})->Args({6000, 200, 64});
  b->Args({6000, 602, 128})->Args({6000, 512, 256});
}

void BM_GemmPackedNT(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto f = static_cast<std::size_t>(state.range(1));
  const tensor::Matrix a = random_matrix(m, f, 44);
  const tensor::Matrix b = random_matrix(f, f, 45);  // used transposed
  tensor::Matrix c(m, f);
  const obs::PerfReading pr = obs::perf_read_thread();
  for (auto _ : state) {
    tensor::gemm_nt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, m, f, f, pr);
}

BENCHMARK(BM_GemmPackedTN)->Apply(tn_shapes);
BENCHMARK(BM_GemmPackedNT)->Args({8000, 128});

void BM_GemmTN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Matrix a = random_matrix(n, n, 3);
  const tensor::Matrix b = random_matrix(n, n, 4);
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::gemm_tn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmTN)->Arg(128)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Matrix a = random_matrix(n, n, 5);
  const tensor::Matrix b = random_matrix(n, n, 6);
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::gemm_nt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmNT)->Arg(128)->Arg(256);

void BM_AggregateMean(benchmark::State& state) {
  const auto n = static_cast<graph::Vid>(state.range(0));
  util::Xoshiro256 rng(7);
  const graph::CsrGraph g =
      graph::erdos_renyi(n, static_cast<graph::Eid>(n) * 15, rng);
  const tensor::Matrix in = random_matrix(n, 128, 8);
  tensor::Matrix out(n, 128);
  const obs::PerfReading pr = obs::perf_read_thread();
  for (auto _ : state) {
    propagation::aggregate_mean_forward(g, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_edges() * 128);
  set_measured_counters(
      state, pr,
      obs::spmm_work(n, static_cast<std::int64_t>(g.num_edges()), 128));
}
BENCHMARK(BM_AggregateMean)->Arg(2000)->Arg(8000);

void BM_FeaturePartitionedPropagation(benchmark::State& state) {
  const auto n = static_cast<graph::Vid>(state.range(0));
  util::Xoshiro256 rng(9);
  const graph::CsrGraph g =
      graph::erdos_renyi(n, static_cast<graph::Eid>(n) * 15, rng);
  const tensor::Matrix in = random_matrix(n, 128, 10);
  tensor::Matrix out(n, 128);
  propagation::FeaturePartitionOptions opts;
  const obs::PerfReading pr = obs::perf_read_thread();
  for (auto _ : state) {
    propagation::propagate_feature_partitioned(g, in, out, opts);
    benchmark::DoNotOptimize(out.data());
  }
  set_measured_counters(
      state, pr,
      obs::spmm_work(n, static_cast<std::int64_t>(g.num_edges()), 128));
}
BENCHMARK(BM_FeaturePartitionedPropagation)->Arg(2000)->Arg(8000);

void BM_Induce(benchmark::State& state) {
  util::Xoshiro256 rng(11);
  const graph::CsrGraph g = graph::erdos_renyi(50000, 750000, rng);
  graph::Inducer inducer(g);
  const auto vertices = util::sample_without_replacement(
      50000, static_cast<std::uint32_t>(state.range(0)), rng);
  const std::vector<graph::Vid> vlist(vertices.begin(), vertices.end());
  for (auto _ : state) {
    auto sub = inducer.induce(vlist);
    benchmark::DoNotOptimize(sub.graph.num_edges());
  }
}
BENCHMARK(BM_Induce)->Arg(1000)->Arg(8000);

void BM_DashboardPopAdd(benchmark::State& state) {
  sampling::Dashboard db(1 << 16, sampling::IntraMode::kAuto);
  util::Xoshiro256 rng(12);
  graph::Vid next = 0;
  for (int i = 0; i < 1000; ++i) db.add(next++, 1 + rng.below(20));
  for (auto _ : state) {
    const graph::Vid v = db.pop(rng);
    benchmark::DoNotOptimize(v);
    const graph::Eid deg = 1 + rng.below(20);
    if (db.needs_cleanup(deg)) db.cleanup();
    db.add(next++, deg);
  }
}
BENCHMARK(BM_DashboardPopAdd);

void BM_FrontierSample(benchmark::State& state) {
  util::Xoshiro256 grng(13);
  const graph::CsrGraph g = graph::erdos_renyi(50000, 750000, grng);
  sampling::FrontierParams p;
  p.frontier_size = 1000;
  p.budget = static_cast<graph::Vid>(state.range(0));
  sampling::DashboardFrontierSampler sampler(g, p);
  util::Xoshiro256 rng(14);
  for (auto _ : state) {
    auto out = sampler.sample_vertices(rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrontierSample)->Arg(4000)->Arg(8000);

}  // namespace

int main(int argc, char** argv) {
  return gsgcn::bench::gbench_main(argc, argv, "BENCH_kernels.json");
}
