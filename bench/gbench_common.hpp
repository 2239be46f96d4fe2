#pragma once
// Shared plumbing for the google-benchmark binaries (bench_kernels,
// bench_propagation): the peak-flops model, the measured hardware-counter
// columns, and an expanded BENCHMARK_MAIN() honouring GSGCN_JSON_OUT.

#include <benchmark/benchmark.h>

#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/perf.hpp"
#include "obs/roofline.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"

namespace gsgcn::bench {

// Single-precision FLOPs per core-cycle at peak for the GEMM kernel this
// process runs (obs::MachineInfo; GSGCN_PEAK_FLOPS_PER_CYCLE overrides).
inline double peak_flops_per_cycle() {
  return obs::machine_info().peak_flops_per_cycle;
}

/// Measured hardware-counter columns from a PerfReading taken just
/// before the timed loop (obs/perf.hpp direct API). Emits nothing but
/// pmu=0 when perf_event_open is unavailable, so baselines stay well-
/// formed on PMU-less hosts. Counters are per-thread (the loop thread),
/// so ratio metrics are representative while absolute counts cover the
/// calling thread's share of a parallel kernel — see obs/perf.hpp.
inline void set_measured_counters(benchmark::State& state,
                                  const obs::PerfReading& loop_begin,
                                  const obs::Work& per_iter) {
  const obs::PerfDelta d =
      obs::perf_delta(loop_begin, obs::perf_read_thread());
  state.counters["pmu"] = d.available ? 1.0 : 0.0;
  if (!d.available || state.iterations() == 0 || d.wall_ns == 0) return;
  const double iters = static_cast<double>(state.iterations());
  const double secs = static_cast<double>(d.wall_ns) * 1e-9;
  const double cycles =
      d.value[static_cast<std::size_t>(obs::PerfSlot::kCycles)];
  const double misses =
      d.value[static_cast<std::size_t>(obs::PerfSlot::kLlcMisses)];
  state.counters["ipc"] = d.ipc();
  state.counters["llc_miss_rate"] = d.llc_miss_rate();
  state.counters["cycles_per_iter"] = cycles / iters;
  state.counters["measured_gbps"] = misses * 64.0 * 1e-9 / secs;
  // Fraction of peak from MEASURED cycles (not the nominal frequency):
  // total modeled flops over the cycles the loop thread actually spent,
  // against every core running at peak_flops_per_cycle.
  if (cycles > 0.0 && per_iter.flops > 0.0) {
    state.counters["frac_peak_measured"] =
        per_iter.flops * iters /
        (cycles * peak_flops_per_cycle() * util::max_threads());
  }
}

/// Distinct (package, core) pairs over the CPUs' sysfs topology; fewer
/// than the logical CPU count means SMT siblings. 0 when sysfs is
/// unreadable. The perf gates bind their floors to this count.
inline int physical_cores() {
  const auto read = [](const std::string& path) {
    std::ifstream in(path);
    std::string value;
    in >> value;
    return value;
  };
  std::set<std::pair<std::string, std::string>> cores;
  for (int cpu = 0;; ++cpu) {
    const std::string dir = "/sys/devices/system/cpu/cpu" +
                            std::to_string(cpu) + "/topology/";
    const std::string core = read(dir + "core_id");
    if (core.empty()) break;
    cores.emplace(read(dir + "physical_package_id"), core);
  }
  return static_cast<int>(cores.size());
}

/// Expanded BENCHMARK_MAIN() honouring GSGCN_JSON_OUT: when the env var
/// names a directory, inject google-benchmark's JSON reporter flags so
/// the binary emits <json_basename> next to the other benches'
/// artifacts. Explicit --benchmark_out flags on the command line win.
inline int gbench_main(int argc, char** argv, const char* json_basename) {
  std::vector<char*> args(argv, argv + argc);
  const std::string dir = util::env_string("GSGCN_JSON_OUT", "");
  std::string out_flag, fmt_flag;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!dir.empty() && !has_out) {
    out_flag = "--benchmark_out=" + dir + "/" + json_basename;
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  // Host attribution in the JSON context block (google-benchmark's own
  // context lacks the CPU model string and hostname).
  const obs::MachineInfo& mi = obs::machine_info();
  benchmark::AddCustomContext("hostname", mi.hostname);
  benchmark::AddCustomContext("cpu_model", mi.cpu_model);
  benchmark::AddCustomContext("l1d_bytes", std::to_string(mi.l1d_bytes));
  benchmark::AddCustomContext("l2_bytes", std::to_string(mi.l2_bytes));
  benchmark::AddCustomContext("l3_bytes", std::to_string(mi.l3_bytes));
  benchmark::AddCustomContext("gemm_kernel", mi.gemm_kernel);
  benchmark::AddCustomContext("physical_cores",
                              std::to_string(physical_cores()));
  benchmark::AddCustomContext(
      "pmu_available", obs::perf_counters_available() ? "true" : "false");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace gsgcn::bench
