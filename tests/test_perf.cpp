// The perf/roofline layer: work-model arithmetic, the forced null
// backend (counters read as zero and available == false — never
// garbage), PerfProfiler accumulation semantics (call counts, wall/work
// sums, the pmu_samples == calls availability rule), machine probing,
// report JSON well-formedness (unavailable counter metrics must be
// null), and obs::PhaseScope feeding the profiler only while enabled.
//
// Nothing here assumes a live PMU: asserts about available == true are
// made only on hand-constructed PerfDelta values fed straight into
// PerfProfiler::record(), so the suite passes identically on bare metal,
// in containers without CAP_PERFMON, and on VMs with no virtualized PMU.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/phase.hpp"
#include "obs/roofline.hpp"
#include "tensor/gemm.hpp"
#include "util/json_writer.hpp"

namespace gsgcn {
namespace {

obs::PerfDelta make_delta(bool available, std::uint64_t wall_ns,
                          double cycles = 0.0, double instructions = 0.0,
                          double llc_loads = 0.0, double llc_misses = 0.0) {
  obs::PerfDelta d;
  d.available = available;
  d.wall_ns = wall_ns;
  d.value[static_cast<std::size_t>(obs::PerfSlot::kCycles)] = cycles;
  d.value[static_cast<std::size_t>(obs::PerfSlot::kInstructions)] =
      instructions;
  d.value[static_cast<std::size_t>(obs::PerfSlot::kLlcLoads)] = llc_loads;
  d.value[static_cast<std::size_t>(obs::PerfSlot::kLlcMisses)] = llc_misses;
  return d;
}

// ---------------------------------------------------------- work models --

TEST(RooflineWork, GemmCountsFlopsAndCompulsoryBytes) {
  const obs::Work w = obs::gemm_work(2, 3, 4, /*c_read_and_written=*/false);
  EXPECT_DOUBLE_EQ(w.flops, 2.0 * 2 * 3 * 4);
  // A (2x3) + B (3x4) read, C (2x4) written, 4 bytes each.
  EXPECT_DOUBLE_EQ(w.bytes, 4.0 * (2 * 3 + 3 * 4 + 2 * 4));
  const obs::Work wb = obs::gemm_work(2, 3, 4, /*c_read_and_written=*/true);
  EXPECT_DOUBLE_EQ(wb.flops, w.flops);  // beta scaling is noise vs 2mnk
  EXPECT_DOUBLE_EQ(wb.bytes, 4.0 * (2 * 3 + 3 * 4 + 2 * 2 * 4));
}

TEST(RooflineWork, SpmmCountsEdgesAndFeatureTraffic) {
  const obs::Work w = obs::spmm_work(/*n=*/10, /*e=*/40, /*cols=*/8);
  EXPECT_DOUBLE_EQ(w.flops, 8.0 * (40 + 10));  // adds + the mean divide
  // X and Y (n x f each) + one u32 per edge + per-row offsets.
  EXPECT_DOUBLE_EQ(w.bytes, 4.0 * (2 * 10 * 8 + 40 + 10));
}

TEST(RooflineWork, GatherAndAdam) {
  const obs::Work g = obs::gather_work(5, 7);
  EXPECT_DOUBLE_EQ(g.flops, 0.0);  // pure data movement
  EXPECT_DOUBLE_EQ(g.bytes, 8.0 * 5 * 7);
  const obs::Work a = obs::adam_work(100);
  EXPECT_DOUBLE_EQ(a.flops, 10.0 * 100);
  EXPECT_DOUBLE_EQ(a.bytes, 28.0 * 100);
}

// --------------------------------------------------------- null backend --

TEST(PerfNullBackend, ForcedNullReadsZeroNeverGarbage) {
  obs::perf_set_force_null(true);
  EXPECT_FALSE(obs::perf_counters_available());
  const obs::PerfReading a = obs::perf_read_thread();
  EXPECT_FALSE(a.available);
  for (const std::uint64_t v : a.value) EXPECT_EQ(v, 0u);
  const obs::PerfReading b = obs::perf_read_thread();
  EXPECT_GE(b.wall_ns, a.wall_ns);  // wall clock still works
  const obs::PerfDelta d = obs::perf_delta(a, b);
  EXPECT_FALSE(d.available);
  for (const double v : d.value) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(d.ipc(), 0.0);
  EXPECT_DOUBLE_EQ(d.llc_miss_rate(), 0.0);
  obs::perf_set_force_null(false);
}

TEST(PerfNullBackend, RegionStillCountsCallsWallAndWork) {
  obs::perf_set_force_null(true);
  obs::PerfProfiler& prof = obs::PerfProfiler::instance();
  prof.reset();
  prof.enable();
  {
    obs::PerfRegion r("t.null", /*flops=*/100.0, /*bytes=*/200.0);
  }
  { obs::PerfRegion r("t.null", 100.0, 200.0); }
  prof.disable();
  const std::vector<obs::PhasePerf> phases = prof.scrape();
  ASSERT_EQ(phases.size(), 1u);
  const obs::PhasePerf& p = phases[0];
  EXPECT_EQ(p.name, "t.null");
  EXPECT_EQ(p.calls, 2u);
  EXPECT_EQ(p.pmu_samples, 0u);
  EXPECT_FALSE(p.available);
  EXPECT_DOUBLE_EQ(p.flops, 200.0);
  EXPECT_DOUBLE_EQ(p.bytes, 400.0);
  // Counter-derived metrics degrade to 0, not to garbage.
  EXPECT_DOUBLE_EQ(p.ipc(), 0.0);
  EXPECT_DOUBLE_EQ(p.llc_miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(p.measured_gbps(), 0.0);
  // Wall-clock throughput keeps working (wall may be ~0 but not negative).
  EXPECT_GE(p.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(p.arithmetic_intensity(), 0.5);
  prof.reset();
  obs::perf_set_force_null(false);
}

// ------------------------------------------------------------- profiler --

TEST(PerfProfiler, DisabledRegionsRecordNothing) {
  obs::PerfProfiler& prof = obs::PerfProfiler::instance();
  prof.reset();
  ASSERT_FALSE(prof.enabled());
  { obs::PerfRegion r("t.off", 1.0, 1.0); }
  EXPECT_TRUE(prof.scrape().empty());
}

TEST(PerfProfiler, RecordAccumulatesPerPhase) {
  obs::PerfProfiler& prof = obs::PerfProfiler::instance();
  prof.reset();
  prof.enable();
  // Two pmu-backed folds into "t.a": 1e9 cycles / 2e9 instr over 0.5 s
  // each, plus 1 GFLOP modeled work per fold.
  const obs::PerfDelta live = make_delta(true, 500'000'000ull, 1e9, 2e9,
                                         1000.0, 250.0);
  prof.record("t.a", live, /*flops=*/1e9, /*bytes=*/5e8);
  prof.record("t.a", live, 1e9, 5e8);
  prof.record("t.b", make_delta(false, 1'000'000'000ull), 0.0, 4e9);
  prof.disable();
  const std::vector<obs::PhasePerf> phases = prof.scrape();
  ASSERT_EQ(phases.size(), 2u);  // first-recorded order
  const obs::PhasePerf& a = phases[0];
  EXPECT_EQ(a.name, "t.a");
  EXPECT_EQ(a.calls, 2u);
  EXPECT_EQ(a.pmu_samples, 2u);
  EXPECT_TRUE(a.available);
  EXPECT_DOUBLE_EQ(a.counter(obs::PerfSlot::kCycles), 2e9);
  EXPECT_DOUBLE_EQ(a.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(a.llc_miss_rate(), 0.25);
  EXPECT_DOUBLE_EQ(a.seconds(), 1.0);
  EXPECT_DOUBLE_EQ(a.gflops(), 2.0);      // 2 GFLOP / 1 s
  EXPECT_DOUBLE_EQ(a.model_gbps(), 1.0);  // 1 GB / 1 s
  EXPECT_DOUBLE_EQ(a.arithmetic_intensity(), 2.0);
  const obs::PhasePerf& b = phases[1];
  EXPECT_EQ(b.name, "t.b");
  EXPECT_FALSE(b.available);
  EXPECT_DOUBLE_EQ(b.model_gbps(), 4.0);
  prof.reset();
  EXPECT_TRUE(prof.scrape().empty());
}

TEST(PerfProfiler, MixedPmuAndNullFoldsAreUnavailable) {
  // One fold with live counters + one on the null backend: ratio metrics
  // would be computed from partial counts, so the phase must degrade to
  // available == false as a whole.
  obs::PerfProfiler& prof = obs::PerfProfiler::instance();
  prof.reset();
  prof.enable();
  prof.record("t.mixed", make_delta(true, 1000, 100.0, 200.0), 0.0, 0.0);
  prof.record("t.mixed", make_delta(false, 1000), 0.0, 0.0);
  prof.disable();
  const std::vector<obs::PhasePerf> phases = prof.scrape();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].calls, 2u);
  EXPECT_EQ(phases[0].pmu_samples, 1u);
  EXPECT_FALSE(phases[0].available);
  EXPECT_DOUBLE_EQ(phases[0].ipc(), 0.0);
  prof.reset();
}

// -------------------------------------------------------------- machine --

TEST(Machine, ProbeYieldsPlausibleHost) {
  const obs::MachineInfo& m = obs::machine_info();
  EXPECT_FALSE(m.hostname.empty());
  EXPECT_GE(m.num_cpus, 1);
  EXPECT_GT(m.peak_flops_per_cycle, 0.0);
  // Cache sizes are 0 when sysfs is absent; never negative.
  EXPECT_GE(m.l1d_bytes, 0);
  EXPECT_GE(m.l2_bytes, 0);
  EXPECT_GE(m.l3_bytes, 0);
  const std::string json = obs::machine_info_json(m);
  EXPECT_TRUE(util::json_valid(json));
  EXPECT_NE(json.find("\"hostname\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_flops_per_cycle\""), std::string::npos);
}

TEST(Machine, RecordsTheGemmKernelThatRuns) {
  const obs::MachineInfo& m = obs::machine_info();
  EXPECT_EQ(m.gemm_kernel, tensor::gemm_kernel_name());
  if (std::getenv("GSGCN_PEAK_FLOPS_PER_CYCLE") == nullptr) {
    EXPECT_EQ(m.peak_flops_per_cycle, tensor::gemm_peak_flops_per_cycle());
  }
  const std::string json = obs::machine_info_json(m);
  EXPECT_NE(json.find("\"gemm_kernel\":\"" + m.gemm_kernel + "\""),
            std::string::npos)
      << json;
#ifdef GSGCN_AVX2
  EXPECT_TRUE(m.gemm_kernel == "avx512-12x32" || m.gemm_kernel == "avx2-6x16")
      << m.gemm_kernel;
#else
  EXPECT_EQ(m.gemm_kernel, "scalar");
#endif
}

// --------------------------------------------------------------- report --

TEST(RooflineReport, UnavailableCounterMetricsAreNull) {
  obs::PhasePerf p;
  p.name = "t.report";
  p.calls = 3;
  p.pmu_samples = 0;
  p.wall_ns = 2'000'000'000ull;
  p.flops = 4e9;
  p.bytes = 1e9;
  p.available = false;
  const std::string json =
      obs::roofline_report_json({p}, obs::machine_info());
  EXPECT_TRUE(util::json_valid(json));
  EXPECT_NE(json.find("\"type\":\"perf_report\""), std::string::npos);
  EXPECT_NE(json.find("\"t.report\""), std::string::npos);
  // Wall-derived metrics are real numbers ...
  EXPECT_NE(json.find("\"gflops\":2"), std::string::npos);
  // ... counter-derived ones are null, never fabricated.
  EXPECT_NE(json.find("\"ipc\":null"), std::string::npos);
  EXPECT_NE(json.find("\"llc_miss_rate\":null"), std::string::npos);
  EXPECT_NE(json.find("\"cycles\":null"), std::string::npos);
  EXPECT_NE(json.find("\"available\":false"), std::string::npos);
}

TEST(RooflineReport, AvailablePhaseCarriesRawCounters) {
  obs::PhasePerf p;
  p.name = "t.live";
  p.calls = 1;
  p.pmu_samples = 1;
  p.wall_ns = 1'000'000'000ull;
  p.counters[static_cast<std::size_t>(obs::PerfSlot::kCycles)] = 1536.0;
  p.counters[static_cast<std::size_t>(obs::PerfSlot::kInstructions)] = 3072.0;
  p.available = true;
  const std::string json =
      obs::roofline_report_json({p}, obs::machine_info());
  EXPECT_TRUE(util::json_valid(json));
  EXPECT_NE(json.find("\"ipc\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cycles\":1536"), std::string::npos);
  EXPECT_EQ(json.find("\"ipc\":null"), std::string::npos);
}

TEST(RooflineReport, WriteReportProducesValidFile) {
  obs::PerfProfiler& prof = obs::PerfProfiler::instance();
  prof.reset();
  prof.enable();
  prof.record("t.file", make_delta(false, 1000), 10.0, 20.0);
  const std::string path = ::testing::TempDir() + "gsgcn_perf_report.json";
  EXPECT_TRUE(obs::write_roofline_report(path));
  prof.disable();
  prof.reset();
  std::ifstream in(path);
  std::stringstream file;
  file << in.rdbuf();
  EXPECT_TRUE(util::json_valid(file.str()));
  EXPECT_NE(file.str().find("\"t.file\""), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(obs::write_roofline_report("/nonexistent-dir/x.json"));
}

// ---------------------------------------------------------- phase scope --

TEST(PhaseScope, FeedsTheProfilerOnlyWhileEnabled) {
  obs::perf_set_force_null(true);
  obs::PerfProfiler& prof = obs::PerfProfiler::instance();
  prof.reset();
  ASSERT_FALSE(prof.enabled());
  { obs::PhaseScope s(obs::Op::kGemm, obs::Dir::kForward, 0, {10.0, 20.0}); }
  EXPECT_TRUE(prof.scrape().empty());
  prof.enable();
  { obs::PhaseScope s(obs::Op::kGemm, obs::Dir::kForward, 0, {10.0, 20.0}); }
  { obs::PhaseScope s(obs::Op::kGemm, obs::Dir::kBackward, 0, {10.0, 20.0}); }
  prof.disable();
  const std::vector<obs::PhasePerf> phases = prof.scrape();
  ASSERT_EQ(phases.size(), 1u);  // one PMU phase per op, both directions
  EXPECT_EQ(phases[0].name, "gemm");
  EXPECT_EQ(phases[0].calls, 2u);
  EXPECT_DOUBLE_EQ(phases[0].flops, 20.0);
  EXPECT_DOUBLE_EQ(phases[0].bytes, 40.0);
  prof.reset();
  obs::perf_set_force_null(false);
}

}  // namespace
}  // namespace gsgcn
