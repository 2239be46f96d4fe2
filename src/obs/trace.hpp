#pragma once
// gsgcn::obs span tracer — Chrome trace-event JSON output.
//
// GSGCN_TRACE_SPAN("pool/refill") opens an RAII span; when the tracer is
// active, the span's [begin, end) interval is recorded as a complete
// ("ph":"X") trace event into a per-thread buffer — one relaxed atomic
// load plus two steady_clock reads per span, no locks, no allocation in
// steady state. Tracer::stop() merges every thread's buffer (including
// those of already-exited threads, which retire their events on thread
// exit) and writes a single JSON document loadable by Perfetto or
// chrome://tracing.
//
// Spans are compiled into every build and gated at run time: until
// start() (train_cli --trace-out) a span costs one atomic load. Phases
// of a training iteration are timed through obs::PhaseScope
// (obs/phase.hpp), which records its span here; GSGCN_TRACE_SPAN is for
// span-only intervals (epochs, iterations, kernel calls, pool refills).
//
// Span names are slash-separated "<subsystem>/<operation>" string
// LITERALS (or pointers outliving the trace): the span stores the
// pointer, not a copy. An optional int64 id is emitted as args.v — used
// for epoch numbers, sampler instance ids, GEMM flop counts.
//
// GSGCN_TRACE_COUNTER(name, value) records a counter sample (Chrome
// "ph":"C") on the same per-thread buffers: Perfetto renders each name
// as a value-over-time track (pool occupancy, per-epoch loss, per-phase
// GFLOP/s) alongside the spans. Counter names share the literal-pointer
// contract; tracks are keyed process-wide by name, so samples from
// different threads interleave on one track in timestamp order.
//
// Concurrency contract: start()/stop() are mutex-protected against each
// other, and spans on any thread are safe while active. stop() merges
// live thread buffers without synchronizing against in-flight spans, so
// call it only after parallel work has joined (end of run).

#include <cstdint>
#include <string>

namespace gsgcn::obs {

class Tracer {
 public:
  static Tracer& instance();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Begin capturing; events recorded before the next stop() are written
  /// to `path` (Chrome trace-event JSON). Discards any prior capture.
  /// Returns false if already active.
  bool start(const std::string& path);

  /// Stop capturing, merge all buffers, write the file given to start().
  /// Returns false if not active or the file could not be written.
  bool stop();

  /// Cheap capture check — the first instruction of every span.
  bool active() const;

  /// Events captured so far (merged view; quiescent points only).
  std::size_t event_count();

  /// Serialize the current capture without writing a file (tests).
  std::string dump_json();

  /// Record a counter sample ("ph":"C") at the current time. No-op when
  /// inactive. `name` follows the span literal-pointer contract.
  void counter(const char* name, double value);

  // Internal API used by Span and the per-thread buffers.
  void record(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
              std::int64_t arg, bool has_arg);
  std::uint64_t now_ns() const;

  struct Impl;  // public so the per-thread buffer destructor can retire

 private:
  Tracer();
  ~Tracer();
  Impl* impl_;
};

/// RAII interval span. Construction samples the clock only when the
/// tracer is active; destruction records the event.
class Span {
 public:
  explicit Span(const char* name) : Span(name, 0, false) {}
  Span(const char* name, std::int64_t arg) : Span(name, arg, true) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Span(const char* name, std::int64_t arg, bool has_arg);
  const char* name_;
  std::int64_t arg_;
  std::uint64_t t0_ns_ = 0;
  bool has_arg_;
  bool armed_ = false;
};

}  // namespace gsgcn::obs

#define GSGCN_TRACE_CONCAT_INNER(a, b) a##b
#define GSGCN_TRACE_CONCAT(a, b) GSGCN_TRACE_CONCAT_INNER(a, b)

#define GSGCN_TRACE_SPAN(name) \
  ::gsgcn::obs::Span GSGCN_TRACE_CONCAT(gsgcn_trace_span_, __LINE__)(name)
#define GSGCN_TRACE_SPAN_ID(name, id)                            \
  ::gsgcn::obs::Span GSGCN_TRACE_CONCAT(gsgcn_trace_span_,         \
                                      __LINE__)(name,            \
                                                static_cast<std::int64_t>(id))
#define GSGCN_TRACE_COUNTER(name, value)       \
  ::gsgcn::obs::Tracer::instance().counter(    \
      name, static_cast<double>(value))
