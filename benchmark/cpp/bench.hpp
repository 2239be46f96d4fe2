#pragma once
// Shared pieces of the end-to-end benchmark program: run options, the
// result document, in-memory span recording and small timing helpers.
//
// The benchmark times each layer from the outside, around calls into the
// library's public functions; nothing here reaches into library internals.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/feature_store.hpp"
#include "gcn/trainer.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

/// Command-line options of one workload process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   // measured window, split across the run's phases
  // e2e: end-to-end metrics, tracing off. reference: the untraced half of
  // the per-layer run (Trainer::train). traced: the traced replica of that
  // loop plus kernel replays. Each mode runs in a process of its own.
  std::string mode = "e2e";
  bool smoke = false;      // tiny inputs: checks wiring, not performance
  bool max_rps = false;    // serve-open: bisect the highest sustainable rate
  std::string workdir;     // working directory (feature files, traces)
};

/// The document one workload process prints as its last stdout line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool ok);
  void info(const std::string& name, double value);
  void info(const std::string& name, const std::string& value);
  void series(const std::string& name, std::vector<double> values);
  void count_attempted(std::int64_t n) { attempted_ += n; }
  void count_failed(std::int64_t n) { failed_ += n; }

  bool all_checks_pass() const;
  /// Value of an already reported metric (throws if absent).
  double value(const std::string& name) const { return metrics_.at(name).value; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  std::string to_json(const Options& opt) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, bool> checks_;
  std::map<std::string, double> info_num_;
  std::map<std::string, std::string> info_str_;
  std::map<std::string, std::vector<double>> series_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// In-memory span log: (name, start, end, parent, iteration id). Spans are
/// recorded by the single thread driving a loop, so no locking.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;          // index of the enclosing span, -1 for a root
    std::int64_t iter;   // iteration (or request) the span belongs to
  };

  /// Open a span; returns its index. Nested opens become children.
  int open(const std::string& name, std::int64_t iter);
  void close(int index);

  /// Summed duration of every span called `name`, in ms.
  double total_ms(const std::string& name) const;

  /// Self time per span name (duration minus the part covered by its
  /// direct children), summed over the whole log, in ms.
  std::map<std::string, double> self_ms() const;

  /// Chrome trace-event JSON ("X" events, microsecond timestamps).
  std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span in `log`.
class Scope {
 public:
  Scope(Spans& log, const char* name, std::int64_t iter)
      : log_(log), index_(log.open(name, iter)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& log_;
  int index_;
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs);
bool all_finite(const std::vector<double>& xs);
double percentile(std::vector<double> xs, double p);

/// Peak resident set of this process (getrusage), MB.
double peak_rss_mb();

/// Write `text` to `path`, creating parent directories. False on failure.
bool write_file(const std::string& path, const std::string& text);

/// Input of the per-layer trace every workload runs in its traced process.
struct LayerTrace {
  const gsgcn::data::Dataset* ds = nullptr;
  gsgcn::gcn::TrainerConfig cfg;  // cfg.epochs = length of each half
  /// External training feature store (dataset ids), as passed to Trainer;
  /// null = the dataset's dense features.
  const gsgcn::data::FeatureStore* train_store = nullptr;
  /// Feature store the serving engine reads (dataset ids).
  const gsgcn::data::FeatureStore* serve_store = nullptr;
  /// Root sets of the requests replayed through the serving engine.
  std::vector<std::vector<std::uint32_t>> requests;
  int engine_threads = 1;
  std::string chrome_path;       // where the span log is written
};

/// Untraced half of the per-layer run: Trainer::train() for cfg.epochs.
/// Reports its epoch losses and iterations/s.
void reference_layers(const LayerTrace& in, Report& report);

/// Traced half: the replica of Trainer::train()'s loop (same public calls,
/// same seed, so the same epoch losses) with a span around every layer
/// call, then kernel and engine replays on the loop's own subgraphs.
/// Emits every per-layer metric into `report`. run.py pairs it with the
/// reference half, which runs in a fresh process so that no per-shape
/// state (the propagation autotuner's cache) leaks between the two.
void trace_layers(const LayerTrace& in, Report& report);

int run_train(const Options& opt, Report& report);
int run_serve(const Options& opt, Report& report);

}  // namespace bench
