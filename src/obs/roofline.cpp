#include "obs/roofline.hpp"

#include <cstdio>
#include <fstream>
#include <thread>

#include "tensor/gemm.hpp"
#include "util/env.hpp"
#include "util/json_writer.hpp"
#include "util/parallel.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace gsgcn::obs {

Work gemm_work(std::int64_t m, std::int64_t k, std::int64_t n,
               bool c_read_and_written) {
  Work w;
  const double dm = static_cast<double>(m);
  const double dk = static_cast<double>(k);
  const double dn = static_cast<double>(n);
  w.flops = 2.0 * dm * dn * dk;
  w.bytes = 4.0 * (dm * dk + dk * dn + (c_read_and_written ? 2.0 : 1.0) * dm * dn);
  return w;
}

Work spmm_work(std::int64_t n_vertices, std::int64_t n_edges,
               std::int64_t cols) {
  Work w;
  const double n = static_cast<double>(n_vertices);
  const double e = static_cast<double>(n_edges);
  const double f = static_cast<double>(cols);
  w.flops = f * (e + n);
  w.bytes = 4.0 * (2.0 * n * f + e + n);
  return w;
}

Work gather_work(std::int64_t rows, std::int64_t cols) {
  return gather_work(rows, cols, 4.0);
}

Work gather_work(std::int64_t rows, std::int64_t cols,
                 double read_bytes_per_value) {
  Work w;
  w.flops = 0.0;
  w.bytes = (read_bytes_per_value + 4.0) * static_cast<double>(rows) *
            static_cast<double>(cols);
  return w;
}

Work adam_work(std::int64_t params) {
  Work w;
  const double p = static_cast<double>(params);
  w.flops = 10.0 * p;
  w.bytes = 28.0 * p;
  return w;
}

namespace {

std::string read_hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    return std::string(buf);
  }
#endif
  return "unknown";
}

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") != 0) continue;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return std::string();
}

MachineInfo probe_machine() {
  MachineInfo m;
  m.hostname = read_hostname();
  m.cpu_model = read_cpu_model();
  m.num_cpus = static_cast<int>(std::thread::hardware_concurrency());
  const util::CacheSizes& caches = util::cache_sizes();
  m.l1d_bytes = static_cast<std::int64_t>(caches.l1d);
  m.l2_bytes = static_cast<std::int64_t>(caches.l2);
  m.l3_bytes = static_cast<std::int64_t>(caches.l3);
  m.gemm_kernel = tensor::gemm_kernel_name();
  m.peak_flops_per_cycle = util::env_double(
      "GSGCN_PEAK_FLOPS_PER_CYCLE", tensor::gemm_peak_flops_per_cycle());
  return m;
}

/// NaN-free derived metric emission: unavailable counter-derived values
/// are emitted as null so consumers can distinguish "not measured" from
/// a genuine zero.
void emit_metric(util::JsonWriter& w, const char* key, double v,
                 bool available) {
  w.key(key);
  if (available) {
    w.value(v);
  } else {
    w.value_null();
  }
}

}  // namespace

const MachineInfo& machine_info() {
  static const MachineInfo info = probe_machine();
  return info;
}

std::string machine_info_json(const MachineInfo& machine) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("hostname").value(machine.hostname);
  w.key("cpu_model").value(machine.cpu_model);
  w.key("num_cpus").value(machine.num_cpus);
  w.key("l1d_bytes").value(static_cast<std::int64_t>(machine.l1d_bytes));
  w.key("l2_bytes").value(static_cast<std::int64_t>(machine.l2_bytes));
  w.key("l3_bytes").value(static_cast<std::int64_t>(machine.l3_bytes));
  w.key("gemm_kernel").value(machine.gemm_kernel);
  w.key("peak_flops_per_cycle").value(machine.peak_flops_per_cycle);
  w.end_object();
  return out;
}

std::string roofline_report_json(const std::vector<PhasePerf>& phases,
                                 const MachineInfo& machine) {
  bool any_available = false;
  for (const PhasePerf& p : phases) {
    if (p.available) any_available = true;
  }
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("type").value("perf_report");
  w.key("machine").value_raw(machine_info_json(machine));
  w.key("pmu_available").value(any_available);
  w.key("phases").begin_array();
  for (const PhasePerf& p : phases) {
    w.begin_object();
    w.key("name").value(p.name);
    w.key("available").value(p.available);
    w.key("calls").value(static_cast<std::int64_t>(p.calls));
    w.key("pmu_samples").value(static_cast<std::int64_t>(p.pmu_samples));
    w.key("seconds").value(p.seconds());
    w.key("flops").value(p.flops);
    w.key("bytes").value(p.bytes);
    // Wall-clock + work-model metrics work on every backend.
    w.key("gflops").value(p.gflops());
    w.key("model_gbps").value(p.model_gbps());
    w.key("arithmetic_intensity").value(p.arithmetic_intensity());
    // Counter-derived metrics only exist on live PMUs.
    for (int i = 0; i < kPerfSlotCount; ++i) {
      const auto slot = static_cast<PerfSlot>(i);
      emit_metric(w, perf_slot_name(slot), p.counter(slot), p.available);
    }
    emit_metric(w, "ipc", p.ipc(), p.available);
    emit_metric(w, "llc_miss_rate", p.llc_miss_rate(), p.available);
    emit_metric(w, "measured_gbps", p.measured_gbps(), p.available);
    emit_metric(w, "multiplex_fraction", p.multiplex_fraction, p.available);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

bool write_roofline_report(const std::string& path) {
  const std::string json = roofline_report_json(
      PerfProfiler::instance().scrape(), machine_info());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "obs::roofline: cannot open '%s'\n", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = n == json.size() && std::fclose(f) == 0;
  if (!ok) {
    std::fprintf(stderr, "obs::roofline: short write to '%s'\n", path.c_str());
  }
  return ok;
}

}  // namespace gsgcn::obs
