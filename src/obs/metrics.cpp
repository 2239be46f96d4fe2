#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "util/json_writer.hpp"

namespace gsgcn::obs {

namespace {

/// Global monotone stamp for gauge writes: the scrape merges per-thread
/// gauge cells by "highest stamp wins". One relaxed fetch_add per gauge
/// set — gauges are low-rate (pool refills, not inner loops), so this is
/// the only shared write on any obs hot path.
std::atomic<std::uint64_t> g_gauge_clock{0};

/// One shard cell: written only by the shard's owning thread (a relaxed
/// load, an add, a relaxed store — no locked instruction), read by
/// scrape() and written by reset() from any thread. Copyable so the cell
/// vectors can grow; growth runs on the owner under the registry lock.
template <typename T>
struct Cell {
  std::atomic<T> v;
  explicit Cell(T init = T{}) : v(init) {}
  Cell(const Cell& o) : v(o.get()) {}
  Cell& operator=(const Cell& o) {
    set(o.get());
    return *this;
  }
  T get() const { return v.load(std::memory_order_relaxed); }
  void set(T x) { v.store(x, std::memory_order_relaxed); }
  void add(T x) { set(get() + x); }
};

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

struct Registry::Shard {
  struct Hist {
    // Private copy of the def's bounds, taken under the registry lock at
    // shard-growth time: observe() must never touch the registry's def
    // vector, whose reallocation under new registrations would race.
    std::vector<double> bounds;
    std::vector<Cell<std::uint64_t>> buckets;  // bounds.size() + 1
    Cell<std::uint64_t> count;
    Cell<double> sum;
    Cell<double> min{kInf};
    Cell<double> max{-kInf};
  };
  struct GaugeCell {
    Cell<std::uint64_t> stamp;  // 0 = never set
    Cell<double> value;
  };
  std::vector<Cell<double>> counters;
  std::vector<GaugeCell> gauges;
  std::vector<Hist> hists;
  // Set by ~Registry() under its lock: the owning registry is gone, so
  // the thread-exit retire below must not touch it. Atomic because a
  // (test-local) registry may be destroyed on one thread while another
  // thread that once wrote to it exits later.
  std::atomic<bool> orphaned{false};
};

namespace {

void merge_shard_into(const Registry::Shard& from, Registry::Shard& into) {
  if (into.counters.size() < from.counters.size()) {
    into.counters.resize(from.counters.size());
  }
  for (std::size_t i = 0; i < from.counters.size(); ++i) {
    into.counters[i].add(from.counters[i].get());
  }
  if (into.gauges.size() < from.gauges.size()) {
    into.gauges.resize(from.gauges.size());
  }
  for (std::size_t i = 0; i < from.gauges.size(); ++i) {
    const std::uint64_t stamp = from.gauges[i].stamp.get();
    if (stamp > into.gauges[i].stamp.get()) {
      into.gauges[i].stamp.set(stamp);
      into.gauges[i].value.set(from.gauges[i].value.get());
    }
  }
  if (into.hists.size() < from.hists.size()) {
    into.hists.resize(from.hists.size());
  }
  for (std::size_t i = 0; i < from.hists.size(); ++i) {
    const auto& fh = from.hists[i];
    auto& ih = into.hists[i];
    if (ih.buckets.size() < fh.buckets.size()) {
      ih.buckets.resize(fh.buckets.size());
    }
    for (std::size_t b = 0; b < fh.buckets.size(); ++b) {
      ih.buckets[b].add(fh.buckets[b].get());
    }
    ih.count.add(fh.count.get());
    ih.sum.add(fh.sum.get());
    ih.min.set(std::min(ih.min.get(), fh.min.get()));
    ih.max.set(std::max(ih.max.get(), fh.max.get()));
  }
}

}  // namespace

/// Per-thread shard set, one shard per Registry this thread has written
/// to (in practice one: the process singleton — the vector exists so
/// test-local registries behave correctly too). Each shard registers
/// with its registry on first use and retires (merges + unlinks) on
/// thread exit, unless the registry died first and orphaned it.
struct ThreadShards {
  struct Entry {
    Registry* owner;
    std::unique_ptr<Registry::Shard> shard;
  };
  std::vector<Entry> entries;
  ~ThreadShards() {
    for (Entry& e : entries) {
      if (!e.shard->orphaned.load(std::memory_order_acquire)) {
        e.owner->retire_shard(e.shard.get());
      }
    }
  }
};

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

Registry::Registry() = default;

Registry::~Registry() {
  util::MutexLock lock(mu_);
  for (Shard* s : shards_) s->orphaned.store(true, std::memory_order_release);
}

Registry::Shard& Registry::local_shard() {
  static thread_local ThreadShards ts;
  // A new registry may reuse a dead one's address, so an orphaned entry
  // (its registry died first) must never match by pointer.
  for (ThreadShards::Entry& e : ts.entries) {
    if (e.owner == this &&
        !e.shard->orphaned.load(std::memory_order_acquire)) {
      return *e.shard;
    }
  }
  // First write to this registry from this thread: drop the orphans.
  ts.entries.erase(
      std::remove_if(ts.entries.begin(), ts.entries.end(),
                     [](const ThreadShards::Entry& e) {
                       return e.shard->orphaned.load(
                           std::memory_order_acquire);
                     }),
      ts.entries.end());
  auto shard = std::make_unique<Shard>();
  Shard* p = shard.get();
  ts.entries.push_back({this, std::move(shard)});
  register_shard(p);
  return *p;
}

void Registry::register_shard(Shard* s) {
  util::MutexLock lock(mu_);
  shards_.push_back(s);
}

void Registry::retire_shard(Shard* s) {
  util::MutexLock lock(mu_);
  shards_.erase(std::remove(shards_.begin(), shards_.end(), s), shards_.end());
  if (retired_ == nullptr) retired_ = std::make_unique<Shard>();
  merge_shard_into(*s, *retired_);
}

void Registry::grow_shard(Shard& s) {
  util::MutexLock lock(mu_);
  if (s.counters.size() < counter_names_.size()) {
    s.counters.resize(counter_names_.size());
  }
  if (s.gauges.size() < gauge_names_.size()) {
    s.gauges.resize(gauge_names_.size());
  }
  if (s.hists.size() < histogram_defs_.size()) {
    const std::size_t old = s.hists.size();
    s.hists.resize(histogram_defs_.size());
    for (std::size_t i = old; i < s.hists.size(); ++i) {
      s.hists[i].bounds = histogram_defs_[i].bounds;
      s.hists[i].buckets.resize(histogram_defs_[i].bounds.size() + 1);
    }
  }
}

namespace {
int find_registered(
    const std::vector<std::pair<std::string, std::pair<int, int>>>& index,
    const std::string& name, int kind, const char* kind_word) {
  for (const auto& [n, kh] : index) {
    if (n != name) continue;
    if (kh.first != kind) {
      throw std::logic_error("obs::Registry: metric '" + name +
                             "' already registered as a different kind (" +
                             kind_word + " requested)");
    }
    return kh.second;
  }
  return -1;
}
}  // namespace

int Registry::counter(const std::string& name) {
  util::MutexLock lock(mu_);
  const int existing = find_registered(index_, name, 0, "counter");
  if (existing >= 0) return existing;
  const int h = static_cast<int>(counter_names_.size());
  counter_names_.push_back(name);
  index_.emplace_back(name, std::make_pair(0, h));
  return h;
}

int Registry::gauge(const std::string& name) {
  util::MutexLock lock(mu_);
  const int existing = find_registered(index_, name, 1, "gauge");
  if (existing >= 0) return existing;
  const int h = static_cast<int>(gauge_names_.size());
  gauge_names_.push_back(name);
  index_.emplace_back(name, std::make_pair(1, h));
  return h;
}

int Registry::histogram(const std::string& name, std::vector<double> bounds) {
  if (bounds.empty()) {
    throw std::invalid_argument("obs histogram '" + name + "': no buckets");
  }
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (!(bounds[i - 1] < bounds[i])) {
      throw std::invalid_argument("obs histogram '" + name +
                                  "': bounds must ascend strictly");
    }
  }
  util::MutexLock lock(mu_);
  const int existing = find_registered(index_, name, 2, "histogram");
  if (existing >= 0) {
    if (histogram_defs_[static_cast<std::size_t>(existing)].bounds != bounds) {
      throw std::logic_error("obs histogram '" + name +
                             "' re-registered with different bounds");
    }
    return existing;
  }
  const int h = static_cast<int>(histogram_defs_.size());
  histogram_defs_.push_back({name, std::move(bounds)});
  index_.emplace_back(name, std::make_pair(2, h));
  return h;
}

void Registry::add(int counter_handle, double v) {
  Shard& s = local_shard();
  const auto h = static_cast<std::size_t>(counter_handle);
  if (h >= s.counters.size()) grow_shard(s);
  s.counters[h].add(v);
}

void Registry::set(int gauge_handle, double v) {
  Shard& s = local_shard();
  const auto h = static_cast<std::size_t>(gauge_handle);
  if (h >= s.gauges.size()) grow_shard(s);
  s.gauges[h].value.set(v);
  s.gauges[h].stamp.set(1 + g_gauge_clock.fetch_add(1, std::memory_order_relaxed));
}

void Registry::observe(int histogram_handle, double v) {
  Shard& s = local_shard();
  const auto h = static_cast<std::size_t>(histogram_handle);
  if (h >= s.hists.size()) grow_shard(s);
  auto& hist = s.hists[h];
  // Bucket index: first bound >= v, overflow bucket otherwise.
  const std::vector<double>& bounds = hist.bounds;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  const auto b = static_cast<std::size_t>(it - bounds.begin());
  hist.buckets[b].add(1);
  hist.count.add(1);
  hist.sum.add(v);
  hist.min.set(std::min(hist.min.get(), v));
  hist.max.set(std::max(hist.max.get(), v));
}

MetricsSnapshot Registry::scrape() {
  util::MutexLock lock(mu_);
  Shard merged;
  if (retired_ != nullptr) merge_shard_into(*retired_, merged);
  for (const Shard* s : shards_) merge_shard_into(*s, merged);

  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters.emplace_back(
        counter_names_[i],
        i < merged.counters.size() ? merged.counters[i].get() : 0.0);
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    GaugeSnapshot g;
    g.name = gauge_names_[i];
    if (i < merged.gauges.size() && merged.gauges[i].stamp.get() != 0) {
      g.value = merged.gauges[i].value.get();
      g.ever_set = true;
    }
    snap.gauges.push_back(std::move(g));
  }
  snap.histograms.reserve(histogram_defs_.size());
  for (std::size_t i = 0; i < histogram_defs_.size(); ++i) {
    HistogramSnapshot h;
    h.name = histogram_defs_[i].name;
    h.bounds = histogram_defs_[i].bounds;
    h.buckets.assign(h.bounds.size() + 1, 0);
    if (i < merged.hists.size()) {
      const auto& m = merged.hists[i];
      for (std::size_t b = 0; b < m.buckets.size() && b < h.buckets.size();
           ++b) {
        h.buckets[b] = m.buckets[b].get();
      }
      h.count = m.count.get();
      h.sum = m.sum.get();
      h.min = m.min.get();
      h.max = m.max.get();
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void Registry::reset() {
  util::MutexLock lock(mu_);
  retired_.reset();
  for (Shard* s : shards_) {
    for (auto& c : s->counters) c.set(0.0);
    for (auto& g : s->gauges) g.stamp.set(0);
    for (auto& h : s->hists) {
      for (auto& b : h.buckets) b.set(0);
      h.count.set(0);
      h.sum.set(0.0);
      h.min.set(kInf);
      h.max.set(-kInf);
    }
  }
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t c = buckets[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      double lo = i == 0 ? min : bounds[i - 1];
      double hi = i < bounds.size() ? bounds[i] : max;
      lo = std::max(lo, min);
      hi = std::min(hi, max);
      if (hi < lo) hi = lo;
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(c);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cum += c;
  }
  return max;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) w.key(name).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : gauges) {
    if (g.ever_set) {
      w.key(g.name).value(g.value);
    } else {
      w.key(g.name).value_null();
    }
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& h : histograms) {
    w.key(h.name).begin_object();
    w.key("count").value(static_cast<std::int64_t>(h.count));
    w.key("sum").value(h.sum);
    w.key("min").value(h.count == 0 ? 0.0 : h.min);
    w.key("max").value(h.count == 0 ? 0.0 : h.max);
    w.key("p50").value(h.percentile(50.0));
    w.key("p90").value(h.percentile(90.0));
    w.key("bounds").begin_array();
    for (const double b : h.bounds) w.value(b);
    w.end_array();
    w.key("buckets").begin_array();
    for (const std::uint64_t c : h.buckets) {
      w.value(static_cast<std::int64_t>(c));
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return out;
}

double MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0.0;
}

const GaugeSnapshot& MetricsSnapshot::gauge(const std::string& name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g;
  }
  throw std::out_of_range("MetricsSnapshot: no gauge '" + name + "'");
}

const HistogramSnapshot& MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return h;
  }
  throw std::out_of_range("MetricsSnapshot: no histogram '" + name + "'");
}

}  // namespace gsgcn::obs
