#pragma once
// gsgcn::obs metrics registry — counters, gauges, fixed-bucket histograms.
//
// Design goals, in priority order:
//   1. Always live, at a measured cost: the GSGCN_COUNTER_* /
//      GSGCN_GAUGE_* / GSGCN_HISTOGRAM_* macros below are compiled into
//      every build and evaluate their operands exactly once.
//   2. No locks and no shared read-modify-write on the hot path: counter
//      adds and histogram observations land in a per-thread shard whose
//      cells are single-writer relaxed atomics (the owner loads, adds and
//      stores; nobody else writes); gauges store a (sequence, value) pair
//      in the same shard, stamped from one relaxed atomic clock so
//      scrape() can pick the latest write. A thread that exits (the TSan
//      std::thread backend creates fresh teams per region) retires its
//      shard into a registry-held accumulator, so nothing is lost.
//   3. Registration is name-keyed and idempotent: the macros cache the
//      handle in a function-local static, so each site resolves its name
//      exactly once per process.
//
// Scrape discipline: scrape() may run while other threads add. Each cell
// is read atomically, so a scrape sees every add that happened before it
// and possibly some that race with it; a histogram read mid-observation
// may count a sample in its bucket but not yet in its count. reset() is
// for tests and tools: adds racing with it may survive it.
//
// Naming convention: dot-separated "<subsystem>.<metric>", e.g.
// "pool.occupancy", "dashboard.probes" (see DESIGN.md "Observability").

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace gsgcn::obs {

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;          // ascending upper bounds; +inf implicit
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// Estimate the p-th percentile (p in [0, 100]) by linear interpolation
  /// inside the bucket holding that rank; the first bucket's lower edge is
  /// the observed min and the overflow bucket's upper edge the observed
  /// max. Returns 0 for an empty histogram.
  double percentile(double p) const;
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
  bool ever_set = false;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, double>> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;
  /// Lookup helpers. A counter nobody registered reads 0, as one that
  /// was never bumped does; unknown gauges and histograms throw
  /// std::out_of_range.
  double counter(const std::string& name) const;
  const GaugeSnapshot& gauge(const std::string& name) const;
  const HistogramSnapshot& histogram(const std::string& name) const;
};

class Registry {
 public:
  /// Process-wide instance (the macros below always target it).
  static Registry& instance();

  Registry();  // defined in metrics.cpp: Shard is incomplete here
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  // --- registration (mutex-protected, idempotent by name) ---
  // Re-registering a name as a different metric kind, or a histogram with
  // different bounds, throws std::logic_error.
  int counter(const std::string& name) EXCLUDES(mu_);
  int gauge(const std::string& name) EXCLUDES(mu_);
  int histogram(const std::string& name, std::vector<double> bounds)
      EXCLUDES(mu_);

  // --- hot path (per-thread shard; no locks unless the shard must grow
  //     to cover handles registered after its creation) ---
  void add(int counter_handle, double v) EXCLUDES(mu_);
  void set(int gauge_handle, double v) EXCLUDES(mu_);
  void observe(int histogram_handle, double v) EXCLUDES(mu_);

  // --- scrape-time (safe while threads add; see header note) ---
  MetricsSnapshot scrape() EXCLUDES(mu_);
  void reset() EXCLUDES(mu_);

  struct Shard;  // per-thread storage; defined in metrics.cpp

 private:
  friend struct ThreadShards;
  Shard& local_shard() EXCLUDES(mu_);
  void register_shard(Shard* s) EXCLUDES(mu_);
  void retire_shard(Shard* s) EXCLUDES(mu_);
  // Locks; aligns shard vectors with the defs.
  void grow_shard(Shard& s) EXCLUDES(mu_);

  struct HistogramDef {
    std::string name;
    std::vector<double> bounds;
  };

  mutable util::Mutex mu_;
  std::vector<std::string> counter_names_ GUARDED_BY(mu_);
  std::vector<std::string> gauge_names_ GUARDED_BY(mu_);
  std::vector<HistogramDef> histogram_defs_ GUARDED_BY(mu_);
  /// Live per-thread shards. The POINTER VECTOR is guarded by mu_, and so
  /// is each shard's cell-vector growth; the cells themselves are
  /// single-writer relaxed atomics, read cross-thread by scrape().
  std::vector<Shard*> shards_ GUARDED_BY(mu_);
  /// Merged shards of exited threads.
  std::unique_ptr<Shard> retired_ GUARDED_BY(mu_);
  /// name -> (kind, handle); kind: 0 counter, 1 gauge, 2 histogram.
  std::vector<std::pair<std::string, std::pair<int, int>>> index_
      GUARDED_BY(mu_);
};

}  // namespace gsgcn::obs

#define GSGCN_COUNTER_ADD(name, v)                                        \
  do {                                                                    \
    static const int gsgcn_obs_handle =                                   \
        ::gsgcn::obs::Registry::instance().counter(name);                 \
    ::gsgcn::obs::Registry::instance().add(gsgcn_obs_handle,              \
                                           static_cast<double>(v));       \
  } while (false)

#define GSGCN_COUNTER_INC(name) GSGCN_COUNTER_ADD(name, 1.0)

#define GSGCN_GAUGE_SET(name, v)                                          \
  do {                                                                    \
    static const int gsgcn_obs_handle =                                   \
        ::gsgcn::obs::Registry::instance().gauge(name);                   \
    ::gsgcn::obs::Registry::instance().set(gsgcn_obs_handle,              \
                                           static_cast<double>(v));       \
  } while (false)

/// Trailing arguments are the ascending bucket upper bounds, fixed at the
/// first execution of the site.
#define GSGCN_HISTOGRAM_OBSERVE(name, v, ...)                             \
  do {                                                                    \
    static const int gsgcn_obs_handle =                                   \
        ::gsgcn::obs::Registry::instance().histogram(                     \
            name, std::vector<double>{__VA_ARGS__});                      \
    ::gsgcn::obs::Registry::instance().observe(gsgcn_obs_handle,          \
                                               static_cast<double>(v));   \
  } while (false)
