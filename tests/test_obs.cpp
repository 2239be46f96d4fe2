// The observability layer: JSON writer/validator, metrics registry
// (bucket + percentile math, per-thread shard merging under parallel_for,
// scrapes racing live adds, gauge last-write-wins, kind-mismatch
// rejection), span tracer JSON well-formedness, the JSONL telemetry
// sink, and the phase ledger (obs/phase.hpp). Every build compiles the
// same instrumentation, so every assertion is unconditional.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/json_writer.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace gsgcn {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(JsonWriter, NestedDocumentRoundTrips) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("name").value("a \"quoted\" \n string");
  w.key("pi").value(3.25);
  w.key("n").value(std::int64_t{-7});
  w.key("flag").value(true);
  w.key("nothing").value_null();
  w.key("xs").begin_array().value(1).value(2).value(3).end_array();
  w.key("nested").begin_object().key("k").value("v").end_object();
  w.end_object();
  EXPECT_TRUE(util::json_valid(out));
  EXPECT_NE(out.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("[1,2,3]"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(out, "[null,null]");
  EXPECT_TRUE(util::json_valid(out));
}

TEST(JsonValid, AcceptsAndRejects) {
  EXPECT_TRUE(util::json_valid("{}"));
  EXPECT_TRUE(util::json_valid("  [1, 2.5e-3, \"x\", null, true] "));
  EXPECT_TRUE(util::json_valid("{\"a\":{\"b\":[{}]}}"));
  EXPECT_FALSE(util::json_valid(""));
  EXPECT_FALSE(util::json_valid("{"));
  EXPECT_FALSE(util::json_valid("{} {}"));       // two values
  EXPECT_FALSE(util::json_valid("{'a':1}"));     // single quotes
  EXPECT_FALSE(util::json_valid("[1,]"));        // trailing comma
  EXPECT_FALSE(util::json_valid("{\"a\" 1}"));   // missing colon
  EXPECT_FALSE(util::json_valid("nul"));
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, CounterAccumulatesAcrossScrapes) {
  obs::Registry reg;
  const int h = reg.counter("t.counter");
  reg.add(h, 2.0);
  reg.add(h, 3.0);
  EXPECT_DOUBLE_EQ(reg.scrape().counter("t.counter"), 5.0);
  reg.add(h, 1.0);
  // scrape() is a snapshot, not a drain.
  EXPECT_DOUBLE_EQ(reg.scrape().counter("t.counter"), 6.0);
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.scrape().counter("t.counter"), 0.0);
  // A name nobody registered reads 0, like a counter never bumped.
  EXPECT_DOUBLE_EQ(reg.scrape().counter("t.never.registered"), 0.0);
}

TEST(Metrics, GaugeLastWriteWins) {
  obs::Registry reg;
  const int h = reg.gauge("t.gauge");
  EXPECT_FALSE(reg.scrape().gauge("t.gauge").ever_set);
  reg.set(h, 10.0);
  reg.set(h, 4.0);
  const auto g = reg.scrape().gauge("t.gauge");
  EXPECT_TRUE(g.ever_set);
  EXPECT_DOUBLE_EQ(g.value, 4.0);
}

TEST(Metrics, HistogramBucketsAndStats) {
  obs::Registry reg;
  const int h = reg.histogram("t.hist", {1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.5, 1.5, 3.0, 100.0}) reg.observe(h, v);
  const auto hist = reg.scrape().histogram("t.hist");
  ASSERT_EQ(hist.buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hist.buckets[0], 1u);      // <= 1
  EXPECT_EQ(hist.buckets[1], 2u);      // (1, 2]
  EXPECT_EQ(hist.buckets[2], 1u);      // (2, 4]
  EXPECT_EQ(hist.buckets[3], 1u);      // > 4
  EXPECT_EQ(hist.count, 5u);
  EXPECT_DOUBLE_EQ(hist.sum, 106.5);
  EXPECT_DOUBLE_EQ(hist.min, 0.5);
  EXPECT_DOUBLE_EQ(hist.max, 100.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 21.3);
}

TEST(Metrics, PercentileInterpolatesWithinBuckets) {
  obs::Registry reg;
  const int h = reg.histogram("t.pct", {10.0, 20.0});
  // 10 observations spread evenly in (0, 10]: ranks land in bucket 0,
  // whose lower edge is the observed min.
  for (int i = 1; i <= 10; ++i) reg.observe(h, static_cast<double>(i));
  const auto hist = reg.scrape().histogram("t.pct");
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1.0);     // observed min
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 10.0);  // observed max
  const double p50 = hist.percentile(50.0);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 10.0);
  // All mass in one bucket: interpolation stays inside [min, bound].
  EXPECT_GT(hist.percentile(90.0), p50);
}

TEST(Metrics, EmptyHistogramPercentileIsZero) {
  obs::Registry reg;
  const int h = reg.histogram("t.empty", {1.0});
  static_cast<void>(h);
  EXPECT_DOUBLE_EQ(reg.scrape().histogram("t.empty").percentile(50.0), 0.0);
}

TEST(Metrics, OneSampleHistogramEveryPercentileIsTheSample) {
  // With a single observation min == max, so the clamped interpolation
  // must collapse every percentile onto that one value.
  obs::Registry reg;
  const int h = reg.histogram("t.one", {10.0});
  reg.observe(h, 5.0);
  const auto hist = reg.scrape().histogram("t.one");
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(hist.percentile(p), 5.0) << "p=" << p;
  }
}

TEST(Metrics, AllOverflowHistogramPercentilesStayInObservedRange) {
  // Every sample lands past the last bound: the overflow bucket has no
  // upper edge, so percentiles must clamp to [min, max] instead of
  // extrapolating to infinity (or returning the meaningless bound).
  obs::Registry reg;
  const int h = reg.histogram("t.over", {1.0});
  for (const double v : {10.0, 20.0, 30.0}) reg.observe(h, v);
  const auto hist = reg.scrape().histogram("t.over");
  ASSERT_EQ(hist.buckets.back(), 3u);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 30.0);
  const double p50 = hist.percentile(50.0);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 30.0);
}

TEST(Metrics, RegistrationIsIdempotentByName) {
  obs::Registry reg;
  EXPECT_EQ(reg.counter("t.c"), reg.counter("t.c"));
  EXPECT_EQ(reg.gauge("t.g"), reg.gauge("t.g"));
  EXPECT_EQ(reg.histogram("t.h", {1.0, 2.0}), reg.histogram("t.h", {1.0, 2.0}));
}

TEST(Metrics, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("t.kind");
  EXPECT_THROW(reg.gauge("t.kind"), std::logic_error);
  EXPECT_THROW(reg.histogram("t.kind", {1.0}), std::logic_error);
  reg.histogram("t.hist", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("t.hist", {3.0}), std::logic_error);  // bounds
}

TEST(Metrics, ShardsMergeUnderParallelFor) {
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  const int c = reg.counter("t.par.counter");
  const int h = reg.histogram("t.par.hist", {100.0, 1000.0});
  constexpr std::int64_t kN = 10000;
  util::parallel_for(kN, 0, [&](std::int64_t i) {
    reg.add(c, 1.0);
    reg.observe(h, static_cast<double>(i));
  });
  // Quiescent point: the parallel region has joined.
  const auto snap = reg.scrape();
  EXPECT_DOUBLE_EQ(snap.counter("t.par.counter"), static_cast<double>(kN));
  const auto hist = snap.histogram("t.par.hist");
  EXPECT_EQ(hist.count, static_cast<std::uint64_t>(kN));
  EXPECT_DOUBLE_EQ(hist.min, 0.0);
  EXPECT_DOUBLE_EQ(hist.max, static_cast<double>(kN - 1));
  EXPECT_EQ(hist.buckets[0], 101u);   // 0..100
  EXPECT_EQ(hist.buckets[1], 900u);   // 101..1000
  EXPECT_EQ(hist.buckets[2], static_cast<std::uint64_t>(kN) - 1001u);
  reg.reset();
}

TEST(Metrics, RegistryAtReusedAddressStartsEmpty) {
  // A registry built in a dead one's storage shares its address. This
  // thread's shard of the dead registry is orphaned, so it must not be
  // matched: the new registry's counters start at 0 and its adds land in
  // a shard it scrapes.
  alignas(obs::Registry) unsigned char storage[sizeof(obs::Registry)];
  for (int round = 0; round < 4; ++round) {
    auto* reg = new (storage) obs::Registry;
    const int h = reg->counter("t.reuse.counter");
    EXPECT_DOUBLE_EQ(reg->scrape().counter("t.reuse.counter"), 0.0) << round;
    reg->add(h, 1.0 + round);
    EXPECT_DOUBLE_EQ(reg->scrape().counter("t.reuse.counter"), 1.0 + round)
        << round;
    reg->~Registry();
  }
}

TEST(Metrics, ScrapeWhileThreadsAddIsSafe) {
  // Shard cells are single-writer relaxed atomics, so a scrape may run
  // beside live adds (TSan checks this under the concurrency label).
  // Scrapes never see the count go down, and the one after the join
  // sees every add.
  obs::Registry reg;
  const int c = reg.counter("t.live.counter");
  const int h = reg.histogram("t.live.hist", {10.0});
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerWriter; ++i) {
        reg.add(c, 1.0);
        reg.observe(h, 1.0);
      }
    });
  }
  double last = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double now = reg.scrape().counter("t.live.counter");
    EXPECT_GE(now, last);
    last = now;
  }
  for (std::thread& w : writers) w.join();
  const auto snap = reg.scrape();
  EXPECT_DOUBLE_EQ(snap.counter("t.live.counter"), kWriters * kPerWriter);
  EXPECT_EQ(snap.histogram("t.live.hist").count,
            static_cast<std::uint64_t>(kWriters * kPerWriter));
}

TEST(Metrics, MacrosEvaluateOperandsOnce) {
  // The macros are live in every build: each evaluates its value operand
  // exactly once and lands in the process registry.
  int evals = 0;
  auto tick = [&evals] { return ++evals; };
  const double before = [] {
    try {
      return obs::Registry::instance().scrape().counter("t.side.c");
    } catch (const std::out_of_range&) {
      return 0.0;
    }
  }();
  GSGCN_COUNTER_ADD("t.side.c", tick());
  GSGCN_GAUGE_SET("t.side.g", tick());
  GSGCN_HISTOGRAM_OBSERVE("t.side.h", tick(), 1.0, 2.0);
  EXPECT_EQ(evals, 3);
  const auto snap = obs::Registry::instance().scrape();
  EXPECT_DOUBLE_EQ(snap.counter("t.side.c") - before, 1.0);
  EXPECT_DOUBLE_EQ(snap.gauge("t.side.g").value, 2.0);
  EXPECT_GE(snap.histogram("t.side.h").count, 1u);
}

TEST(Metrics, SnapshotToJsonIsValid) {
  obs::Registry reg;
  reg.add(reg.counter("t.c"), 7.0);
  reg.set(reg.gauge("t.g"), 1.5);
  reg.observe(reg.histogram("t.h", {1.0}), 0.5);
  const std::string json = reg.scrape().to_json();
  EXPECT_TRUE(util::json_valid(json));
  EXPECT_NE(json.find("\"t.c\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// --------------------------------------------------------------- trace --

TEST(Trace, SpansProduceWellFormedChromeJson) {
  obs::Tracer& tr = obs::Tracer::instance();
  const std::string path = ::testing::TempDir() + "gsgcn_trace_test.json";
  ASSERT_TRUE(tr.start(path));
  EXPECT_TRUE(tr.active());
  EXPECT_FALSE(tr.start(path));  // nested start rejected
  {
    obs::Span outer("test/outer", 42);
    obs::Span inner("test/inner");
  }
  util::parallel_for(64, 0, [&](std::int64_t i) {
    obs::Span s("test/parallel", i);
  });
  EXPECT_GE(tr.event_count(), 2u + 64u);
  const std::string json = tr.dump_json();
  EXPECT_TRUE(util::json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test/outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test/parallel\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  ASSERT_TRUE(tr.stop());
  EXPECT_FALSE(tr.active());
  EXPECT_FALSE(tr.stop());  // double stop rejected
  std::ifstream in(path);
  std::stringstream file;
  file << in.rdbuf();
  EXPECT_TRUE(util::json_valid(file.str()));
  std::remove(path.c_str());
}

TEST(Trace, CounterEventsProduceChromeCounterPhase) {
  // "ph":"C" samples drive Perfetto counter tracks (pool occupancy,
  // per-phase GFLOP/s, loss); like spans, they record only while the
  // tracer is active.
  obs::Tracer& tr = obs::Tracer::instance();
  const std::string path = ::testing::TempDir() + "gsgcn_counter_test.json";
  ASSERT_TRUE(tr.start(path));
  tr.counter("test/occupancy", 3.0);
  tr.counter("test/occupancy", 7.5);
  { obs::Span s("test/span"); }
  EXPECT_EQ(tr.event_count(), 3u);
  const std::string json = tr.dump_json();
  EXPECT_TRUE(util::json_valid(json));
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"test/occupancy\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"value\":7.5"), std::string::npos);
  // Duration events still interleave correctly with counters.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  ASSERT_TRUE(tr.stop());
  std::remove(path.c_str());
}

TEST(Trace, InactiveTracerIgnoresCounters) {
  obs::Tracer& tr = obs::Tracer::instance();
  ASSERT_FALSE(tr.active());
  tr.counter("test/ignored", 1.0);
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST(Trace, InactiveTracerRecordsNothing) {
  obs::Tracer& tr = obs::Tracer::instance();
  ASSERT_FALSE(tr.active());
  { obs::Span s("test/ignored"); }
  EXPECT_EQ(tr.event_count(), 0u);
}

// ----------------------------------------------------------- telemetry --

TEST(Telemetry, JsonlRoundTrip) {
  obs::Telemetry& sink = obs::Telemetry::instance();
  EXPECT_FALSE(sink.enabled());
  sink.emit("{\"dropped\":true}");  // no-op while closed
  const std::string path = ::testing::TempDir() + "gsgcn_telemetry_test.jsonl";
  ASSERT_TRUE(sink.open(path));
  EXPECT_TRUE(sink.enabled());
  sink.emit("{\"type\":\"epoch\",\"epoch\":0}");
  sink.emit("{\"type\":\"run_summary\"}");
  sink.close();
  EXPECT_FALSE(sink.enabled());
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(util::json_valid(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(Telemetry, EscapedStringsStayOneValidLinePerRecord) {
  // JSONL only works if a record is exactly one line: strings containing
  // newlines, quotes, backslashes and control bytes must arrive escaped
  // (JsonWriter's job) and the sink must not mangle them.
  obs::Telemetry& sink = obs::Telemetry::instance();
  const std::string path = ::testing::TempDir() + "gsgcn_escape_test.jsonl";
  ASSERT_TRUE(sink.open(path));
  std::string rec;
  util::JsonWriter w(&rec);
  w.begin_object();
  w.key("type").value("escape");
  w.key("text").value("line1\nline2\t\"quoted\" back\\slash \x01 end");
  w.end_object();
  EXPECT_EQ(rec.find('\n'), std::string::npos);  // writer escaped it
  sink.emit(rec);
  sink.close();
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(util::json_valid(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 1);  // still a single JSONL record
  std::remove(path.c_str());
}

TEST(Telemetry, OpenFailsOnBadPath) {
  EXPECT_FALSE(obs::Telemetry::instance().open("/nonexistent-dir/x.jsonl"));
  EXPECT_FALSE(obs::Telemetry::instance().enabled());
}

TEST(Telemetry, ConcurrentOpenEmitCloseIsSerialized) {
  // Regression (thread-safety annotation sweep): the sink's Impl used to
  // be created lazily inside open(), so a first open() racing
  // enabled()/emit() on another thread could dereference a half-published
  // pointer. Impl is now constructed eagerly in the singleton
  // constructor, and every file touch serializes on one mutex. Hammer
  // open/emit/enabled/close from a full team; runs under the TSan ctest
  // label (concurrency).
  obs::Telemetry& sink = obs::Telemetry::instance();
  const std::string path = ::testing::TempDir() + "gsgcn_telemetry_race.jsonl";
  ASSERT_TRUE(sink.open(path));
  util::parallel_region(4, [&](int tid, int /*nthreads*/) {
    for (int i = 0; i < 16; ++i) {
      if (tid == 0 && i % 8 == 0) {
        (void)sink.open(path);  // reopen truncates; must not tear a write
      } else {
        sink.emit("{\"tid\":" + std::to_string(tid) + "}");
      }
      (void)sink.enabled();
    }
  });
  sink.close();
  EXPECT_FALSE(sink.enabled());
  // Every record that survived the last truncation must be a whole line
  // of valid JSON — an interleaved or torn write would break parsing.
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_TRUE(util::json_valid(line)) << line;
  }
  std::remove(path.c_str());
}

TEST(Trace, SpanMacroRecordsOnlyWhileActive) {
  obs::Tracer& tr = obs::Tracer::instance();
  ASSERT_FALSE(tr.active());
  { GSGCN_TRACE_SPAN("t.macro/idle"); }
  EXPECT_EQ(tr.event_count(), 0u);
  const std::string path = ::testing::TempDir() + "gsgcn_macro_trace.json";
  ASSERT_TRUE(tr.start(path));
  { GSGCN_TRACE_SPAN_ID("t.macro/span", 7); }
  EXPECT_EQ(tr.event_count(), 1u);
  EXPECT_NE(tr.dump_json().find("\"t.macro/span\""), std::string::npos);
  ASSERT_TRUE(tr.stop());
  std::remove(path.c_str());
}

// -------------------------------------------------------- phase ledger --

TEST(PhaseLedger, ScopeAccumulatesWallAndCalls) {
  const obs::Ledger before = obs::thread_ledger();
  util::Timer wall;
  {
    obs::PhaseScope s(obs::Op::kGemm, obs::Dir::kBackward, 3);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  { obs::PhaseScope s(obs::Op::kGemm, obs::Dir::kBackward); }
  { obs::PhaseScope s(obs::Op::kLoss); }
  const double wall_seconds = wall.seconds();
  const obs::Ledger d = obs::thread_ledger() - before;
  EXPECT_EQ(d.calls_at(obs::Op::kGemm, obs::Dir::kBackward), 2u);
  EXPECT_EQ(d.calls_at(obs::Op::kLoss, obs::Dir::kForward), 1u);
  EXPECT_EQ(d.calls_at(obs::Op::kGemm, obs::Dir::kForward), 0u);
  EXPECT_GT(d.at(obs::Op::kGemm, obs::Dir::kBackward), 0.0);
  EXPECT_EQ(d.at(obs::Op::kSpmm, obs::Dir::kForward), 0.0);
  // Non-nesting scopes cover disjoint intervals of the wall clock.
  EXPECT_LE(d.total_seconds(), wall_seconds);
  EXPECT_DOUBLE_EQ(d.op_seconds(obs::Op::kGemm),
                   d.at(obs::Op::kGemm, obs::Dir::kBackward));
  EXPECT_TRUE(util::json_valid(d.to_json()));
  EXPECT_NE(d.to_json().find("\"elementwise\""), std::string::npos);
}

TEST(PhaseLedger, LedgerIsPerThread) {
  const obs::Ledger before = obs::thread_ledger();
  obs::Ledger other;
  std::thread t([&other] {
    { obs::PhaseScope s(obs::Op::kSpmm); }
    other = obs::thread_ledger();
  });
  t.join();
  EXPECT_EQ(other.calls_at(obs::Op::kSpmm, obs::Dir::kForward), 1u);
  const obs::Ledger d = obs::thread_ledger() - before;
  EXPECT_EQ(d.calls_at(obs::Op::kSpmm, obs::Dir::kForward), 0u);
}

TEST(PhaseLedger, SpanCarriesTheLayerIdWhileTracing) {
  obs::Tracer& tr = obs::Tracer::instance();
  const std::string path = ::testing::TempDir() + "gsgcn_phase_trace.json";
  { obs::PhaseScope s(obs::Op::kSpmm, obs::Dir::kBackward, 5); }
  EXPECT_EQ(tr.event_count(), 0u);  // tracer off: ledger only
  ASSERT_TRUE(tr.start(path));
  { obs::PhaseScope s(obs::Op::kSpmm, obs::Dir::kBackward, 5); }
  { obs::PhaseScope s(obs::Op::kPop); }
  EXPECT_EQ(tr.event_count(), 2u);
  const std::string json = tr.dump_json();
  EXPECT_NE(json.find("\"spmm/backward\""), std::string::npos);
  EXPECT_NE(json.find("\"v\":5"), std::string::npos);
  EXPECT_NE(json.find("\"pop/forward\""), std::string::npos);
  ASSERT_TRUE(tr.stop());
  std::remove(path.c_str());
}

TEST(PhaseLedgerDeathTest, NestedScopesFireWhenChecked) {
  if (!util::checks_enabled()) GTEST_SKIP() << "checks compiled out";
  EXPECT_DEATH(
      {
        obs::PhaseScope outer(obs::Op::kGemm);
        obs::PhaseScope inner(obs::Op::kSpmm);
      },
      "do not nest");
}

}  // namespace
}  // namespace gsgcn
