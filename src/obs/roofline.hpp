#pragma once
// gsgcn::obs roofline attribution — work models + report emission.
//
// Pairs the phases measured by perf.hpp with analytic work models
// (flops + bytes per kernel invocation) so each pipeline phase reports
// achieved GFLOP/s, GB/s, arithmetic intensity, IPC and LLC miss rate —
// the roofline methodology (Williams et al., CACM 2009). The byte
// models count COMPULSORY traffic (each operand read once, each result
// written once): a lower bound on real traffic, so model_gbps is a
// lower bound on achieved bandwidth and arithmetic_intensity an upper
// bound on the kernel's true intensity. measured_gbps (LLC misses x
// 64B / s, PMU-capable hosts only) bounds from the other side.
//
// Work models (f32 elements = 4 bytes):
//   gemm m x k x n:  2mnk flops;  4(mk + kn + c_touch*mn) bytes,
//                    c_touch = 2 when beta != 0 (C read + written).
//   spmm n vertices, e edges, f cols (mean-aggregation propagate):
//                    f(e + n) flops; 4(2nf + e + n) bytes
//                    (X in, Y out, one u32 index per edge + offsets).
//   gather r rows x f cols: 0 flops; 8rf bytes (read rows, write out).
//   adam p params: ~10 flops/param; 28 bytes/param
//                  (read w,g,m,v; write w,m,v).
//
// MachineInfo captures the host (hostname, CPU model, cache sizes, GEMM
// kernel, peak flops/cycle) so committed baselines are attributable to
// hardware; the same struct feeds the bench emitters' JSON headers.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/perf.hpp"

namespace gsgcn::obs {

struct Work {
  double flops = 0.0;
  double bytes = 0.0;
};

Work gemm_work(std::int64_t m, std::int64_t k, std::int64_t n,
               bool c_read_and_written);
Work spmm_work(std::int64_t n_vertices, std::int64_t n_edges,
               std::int64_t cols);
Work gather_work(std::int64_t rows, std::int64_t cols);
/// Feature-store variant: the source rows are stored compressed, so a
/// gathered value reads `read_bytes_per_value` (4 fp32, 2 fp16/bf16,
/// 1 int8) and writes 4 bytes of widened fp32.
Work gather_work(std::int64_t rows, std::int64_t cols,
                 double read_bytes_per_value);
Work adam_work(std::int64_t params);

/// Host description for report headers and bench baselines.
struct MachineInfo {
  std::string hostname;
  std::string cpu_model;   ///< /proc/cpuinfo "model name" (empty if n/a)
  int num_cpus = 0;
  std::int64_t l1d_bytes = 0;  ///< 0 when sysfs is unavailable
  std::int64_t l2_bytes = 0;
  std::int64_t l3_bytes = 0;
  /// GEMM micro-kernel this process runs (tensor::gemm_kernel_name()).
  std::string gemm_kernel;
  /// Per-core peak f32 flops/cycle; GSGCN_PEAK_FLOPS_PER_CYCLE env
  /// override, default that of the GEMM kernel's ISA assuming two FMA
  /// ports (64 AVX-512, 32 AVX2; tensor::gemm_peak_flops_per_cycle()).
  double peak_flops_per_cycle = 32.0;
};

/// Probe the host once and cache the result (thread-safe).
const MachineInfo& machine_info();

/// Serialize `machine` as a JSON object ({"hostname": ..., ...}).
std::string machine_info_json(const MachineInfo& machine);

/// Full perf report: machine header + one object per phase with raw
/// counters and derived roofline metrics. Phases with pmu_samples <
/// calls report available=false and null derived counter metrics —
/// never garbage. This is the --perf-out document and the run_summary
/// "perf" value.
std::string roofline_report_json(const std::vector<PhasePerf>& phases,
                                 const MachineInfo& machine);

/// Convenience: scrape the profiler and write the report to `path`.
/// Returns false when the file cannot be written.
bool write_roofline_report(const std::string& path);

}  // namespace gsgcn::obs
