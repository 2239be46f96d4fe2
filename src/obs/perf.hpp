#pragma once
// gsgcn::obs hardware-counter (PMU) profiling.
//
// Wraps perf_event_open(2) counter groups behind an RAII PerfRegion: a
// region names one pipeline phase (an obs::PhaseScope op — "gather",
// "spmm", "gemm", ... — or the pool's "sample"), optionally
// carries a modeled work estimate (flops + bytes, see roofline.hpp), and
// on destruction folds the measured counter deltas plus wall time into a
// process-wide per-phase accumulator (PerfProfiler). A quiescent-point
// scrape() then yields per-phase cycles, instructions, LLC loads/misses,
// backend stalls and branch misses, from which roofline.hpp derives IPC,
// miss rate, GFLOP/s, GB/s and arithmetic intensity.
//
// Counter group (one group per thread, leader = cycles):
//   cycles, instructions, LLC-loads, LLC-misses,
//   stalled-cycles-backend, branch-misses
// The group is opened with PERF_FORMAT_GROUP|TOTAL_TIME_ENABLED|
// TOTAL_TIME_RUNNING so deltas can be scaled when the kernel multiplexes
// the group against other users of the PMU, and with exclude_kernel/
// exclude_hv so it works at perf_event_paranoid <= 2 (the default on
// most distros).
//
// NULL BACKEND / graceful degradation. perf_event_open is frequently
// unavailable: containers without CAP_PERFMON, perf_event_paranoid >= 3,
// VMs without a virtualized PMU, non-Linux hosts. The first failed open
// latches the process into the null backend: regions still count calls,
// wall time and modeled work (so GFLOP/s and modeled GB/s keep working),
// but every hardware counter reads 0 and PhasePerf/PerfDelta report
// available == false — never garbage. perf_set_force_null(true) (or env
// GSGCN_PERF_FORCE_NULL=1) forces this path so it is testable on PMU-
// capable hosts too.
//
// MEASUREMENT SEMANTICS. Counters are per-thread and a region measures
// only the thread that opened it. Regions around OpenMP parallel kernels
// (gemm, propagate) therefore count the calling thread's share; since
// the master thread participates in every parallel loop, ratio metrics
// (IPC, LLC miss rate, multiplex fraction) are representative of the
// whole kernel, while absolute counts cover 1/num_threads of it.
// Throughput metrics (GFLOP/s, modeled GB/s) come from wall time plus
// the work model and are exact regardless. measured GB/s (LLC misses x
// 64B / wall) inherits the per-thread caveat.
//
// Regions are compiled into every build and gated at run time: when the
// profiler is disabled (the default) a region costs one relaxed atomic
// load. Training phases open their regions through obs::PhaseScope
// (obs/phase.hpp).
//
// Concurrency contract: PerfRegion is safe on any thread; the per-phase
// fold takes a mutex but regions are per-iteration, not per-element, so
// the lock is cold. enable()/disable()/reset()/scrape() belong at
// quiescent points (after parallel work has joined).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace gsgcn::obs {

/// Counter slots, in group order. kCycles is the group leader.
enum class PerfSlot : int {
  kCycles = 0,
  kInstructions,
  kLlcLoads,
  kLlcMisses,
  kStalledBackend,
  kBranchMisses,
};
inline constexpr int kPerfSlotCount = 6;

/// Stable snake_case name for JSON keys ("cycles", "instructions", ...).
const char* perf_slot_name(PerfSlot slot);

/// Raw snapshot of the calling thread's counter group. Obtain with
/// perf_read_thread(); subtract two snapshots with perf_delta().
struct PerfReading {
  std::array<std::uint64_t, kPerfSlotCount> value{};
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  std::uint64_t wall_ns = 0;  ///< steady_clock, sampled with the counters
  bool available = false;     ///< false on the null backend
};

/// Multiplex-scaled counter deltas between two readings on one thread.
struct PerfDelta {
  std::array<double, kPerfSlotCount> value{};
  std::uint64_t wall_ns = 0;
  /// time_running / time_enabled over the interval; 1.0 means the group
  /// was never descheduled from the PMU (no multiplexing).
  double multiplex_fraction = 1.0;
  bool available = false;

  double ipc() const;            ///< instructions / cycles (0 if n/a)
  double llc_miss_rate() const;  ///< LLC misses / LLC loads (0 if n/a)
};

/// Read the calling thread's counter group, opening it on first use.
/// Always succeeds; on the null backend the reading has available=false
/// and a valid wall_ns. Direct API for benchmarks; training code should
/// use PerfRegion.
PerfReading perf_read_thread();

/// Scaled difference end - begin. Both readings must come from the same
/// thread. available is the AND of both endpoints.
PerfDelta perf_delta(const PerfReading& begin, const PerfReading& end);

/// True when the calling thread's group opened with live hardware
/// counters (probes by opening it if necessary).
bool perf_counters_available();

/// Force (or unforce) the null backend for subsequently opened thread
/// groups; existing per-thread groups are reopened on their next read.
/// Test hook — the env var GSGCN_PERF_FORCE_NULL=1 sets it at startup.
void perf_set_force_null(bool force);

/// Accumulated measurements for one named phase.
struct PhasePerf {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t pmu_samples = 0;  ///< calls that carried live counters
  std::uint64_t wall_ns = 0;
  std::array<double, kPerfSlotCount> counters{};
  double multiplex_fraction = 1.0;  ///< call-weighted mean
  double flops = 0.0;               ///< modeled work (roofline.hpp)
  double bytes = 0.0;
  /// True iff every fold into this phase carried live hardware counters
  /// (so the counter-derived metrics below are meaningful).
  bool available = false;

  double counter(PerfSlot slot) const {
    return counters[static_cast<std::size_t>(slot)];
  }
  double seconds() const { return static_cast<double>(wall_ns) * 1e-9; }
  double ipc() const;                    ///< 0 when !available
  double llc_miss_rate() const;          ///< 0 when !available
  double gflops() const;                 ///< modeled flops / wall
  double model_gbps() const;             ///< modeled bytes / wall
  double measured_gbps() const;          ///< LLC misses * 64B / wall
  double arithmetic_intensity() const;   ///< modeled flops / bytes
};

/// Process-wide per-phase accumulator. Disabled by default; train_cli
/// enables it for --perf-out. Fold happens in ~PerfRegion under a mutex
/// (cold: once per region, not per element).
class PerfProfiler {
 public:
  static PerfProfiler& instance();

  PerfProfiler(const PerfProfiler&) = delete;
  PerfProfiler& operator=(const PerfProfiler&) = delete;

  void enable();
  void disable();
  bool enabled() const;  ///< one relaxed load — the region fast path

  /// Drop all accumulated phases (quiescent points only).
  void reset();

  /// Copy of every phase, in first-recorded order (quiescent points
  /// only).
  std::vector<PhasePerf> scrape();

  /// Fold one measured region. Internal API used by PerfRegion and the
  /// benchmarks; `phase` follows the literal-pointer contract.
  void record(const char* phase, const PerfDelta& delta, double flops,
              double bytes);

  struct Impl;

 private:
  PerfProfiler();
  ~PerfProfiler();
  Impl* impl_;
};

/// RAII measured region. Construction reads the thread's counter group
/// only when the profiler is enabled; destruction reads again and folds
/// the delta (plus modeled work) into the named phase.
///
/// When the tracer is also active and the region modeled flops, a
/// Chrome counter sample ("ph":"C", track = phase name) of the region's
/// achieved GFLOP/s is emitted so Perfetto shows throughput over time.
class PerfRegion {
 public:
  explicit PerfRegion(const char* phase, double flops = 0.0,
                      double bytes = 0.0);
  ~PerfRegion();
  PerfRegion(const PerfRegion&) = delete;
  PerfRegion& operator=(const PerfRegion&) = delete;

 private:
  const char* phase_;
  double flops_;
  double bytes_;
  PerfReading begin_{};
  bool armed_ = false;
};

}  // namespace gsgcn::obs
