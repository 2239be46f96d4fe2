#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "obs/roofline.hpp"
#include "util/json_writer.hpp"

namespace bench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::check(const std::string& name, bool ok) {
  const auto it = checks_.find(name);
  checks_[name] = ok && (it == checks_.end() || it->second);
}

void Report::info(const std::string& name, double value) {
  info_num_[name] = value;
}

void Report::info(const std::string& name, const std::string& value) {
  info_str_[name] = value;
}

void Report::series(const std::string& name, std::vector<double> values) {
  series_[name] = std::move(values);
}

bool Report::all_checks_pass() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& kv) { return kv.second; });
}

std::string Report::to_json(const Options& opt) const {
  std::string out;
  gsgcn::util::JsonWriter w(&out);
  w.begin_object();
  w.key("workload").value(opt.workload);
  w.key("seed").value(static_cast<std::int64_t>(opt.seed));
  w.key("seconds").value(opt.seconds);
  w.key("mode").value(opt.mode);
  w.key("smoke").value(opt.smoke);
  w.key("build_type").value(GSGCN_BENCH_BUILD_TYPE);
  w.key("gsgcn_obs").value(GSGCN_BENCH_OBS);
  w.key("machine_info").value_raw(
      gsgcn::obs::machine_info_json(gsgcn::obs::machine_info()));
  w.key("correct").value(all_checks_pass());
  w.key("attempted").value(attempted_);
  w.key("failed").value(failed_);
  w.key("checks").begin_object();
  for (const auto& [k, v] : checks_) w.key(k).value(v);
  w.end_object();
  w.key("metrics").begin_object();
  for (const auto& [k, m] : metrics_) {
    w.key(k).begin_object();
    // JsonWriter writes non-finite doubles as null; run.py treats a null
    // metric as missing, which fails its completeness check loudly.
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  // Doubles are written shortest-round-trip, so a reader recovers every
  // bit (run.py compares epoch losses across processes exactly).
  w.key("series").begin_object();
  for (const auto& [k, v] : series_) {
    w.key(k).begin_array();
    for (const double x : v) w.value(x);
    w.end_array();
  }
  w.end_object();
  w.key("info").begin_object();
  for (const auto& [k, v] : info_num_) w.key(k).value(v);
  for (const auto& [k, v] : info_str_) w.key(k).value(v);
  w.end_object();
  w.end_object();
  return out;
}

int Spans::open(const std::string& name, std::int64_t iter) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, now, now, parent, iter});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Spans::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Spans::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-6;
}

std::map<std::string, double> Spans::self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

std::string Spans::chrome_json() const {
  std::string out;
  gsgcn::util::JsonWriter w(&out);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("pid").value(1);
    w.key("tid").value(1);
    w.key("ts").value(static_cast<double>(s.start_ns) * 1e-3);
    w.key("dur").value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::int64_t>(i));
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.key("iter").value(s.iter);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

bool all_finite(const std::vector<double>& xs) {
  return std::all_of(xs.begin(), xs.end(),
                     [](double x) { return std::isfinite(x); });
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  // Linear interpolation between closest ranks.
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool write_file(const std::string& path, const std::string& text) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace bench
