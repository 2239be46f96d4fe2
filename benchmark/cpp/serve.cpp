// serve-open: an in-process serve::Server under an open-loop load.
//
// Load generator: one sender (this thread) and one receiver thread over two
// pipelined connections. Arrivals are Poisson at fixed rates; each request
// asks for the logits of 4 uniform roots. Latency is timed from the
// request's scheduled send time, so a stalled generator charges the delay
// to every request it held back, and the generator's own lateness is
// reported as loadgen.lag_p99_ms. Every 20th OK response is checked against
// full-graph inference computed at set-up.

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "data/synthetic.hpp"
#include "gcn/inference.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace bench {
namespace {

using namespace gsgcn;

constexpr int kSetupReps = 25;  // server starts per run; median reported

struct ServeSpec {
  data::SyntheticParams data;
  gcn::ModelConfig model;
  serve::ServerOptions server;
  // Fixed open-loop rates: 0.25x and 0.7x of max_rps as measured on the
  // reference host (median of seeds 1-10, 633/s; see README.md). They stay
  // fixed so that a faster or slower server is compared at the same load.
  double low_rps = 0.0;
  double high_rps = 0.0;
  int inflight_per_conn = 16;  // saturation probe depth (within the queue)
  std::uint32_t roots = 4;
  gcn::TrainerConfig trace_cfg;  // per-layer trace on the serving graph
  double trace_epochs_per_second = 1.0;
};

ServeSpec serve_spec(const Options& opt) {
  ServeSpec s;
  s.data.name = "serve-open";
  s.data.num_vertices = 40000;
  s.data.avg_degree = 10.0;
  s.data.feature_dim = 64;
  s.data.num_classes = 16;
  s.data.seed = opt.seed;
  s.model.in_dim = 64;
  s.model.hidden_dim = 64;
  s.model.num_layers = 2;
  s.model.num_classes = 16;
  s.model.seed = opt.seed;
  s.server.num_workers = 1;
  s.server.infer_threads = 1;
  s.server.max_batch = 16;
  s.server.batch_window_ms = 1.0;
  s.server.default_deadline_ms = 1000;
  s.low_rps = 160.0;
  s.high_rps = 440.0;
  s.trace_cfg.seed = opt.seed;
  s.trace_cfg.hidden_dim = 64;
  s.trace_cfg.num_layers = 2;
  s.trace_cfg.threads = 2;
  s.trace_cfg.async_sampling = true;
  s.trace_cfg.eval_every_epoch = false;
  s.trace_cfg.final_eval = false;
  s.trace_epochs_per_second = 6.0;
  if (opt.smoke) {
    s.data.num_vertices = 2000;
    s.low_rps = 100.0;
    s.high_rps = 200.0;
    s.trace_cfg.budget = 400;
    s.trace_cfg.frontier_size = 100;
  }
  return s;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = serve::sock_write(fd, bytes.data() + off, bytes.size() - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
    } else if (w < 0 && (errno == EINTR || errno == EAGAIN)) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

struct Phase {
  std::vector<double> latency_ms;  // OK responses, in request order
  std::vector<double> done_s;      // OK responses: completion, s after start
  std::vector<double> lag_ms;      // sender lateness per request
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t non_ok = 0;
  std::int64_t transport = 0;
  std::int64_t checked = 0;
  std::int64_t mismatches = 0;
  double wall_s = 0.0;
  double p50_first_half = 0.0;
  double p50_second_half = 0.0;
};

/// One load phase against `port`. rate > 0: open loop, Poisson arrivals
/// for `seconds`. rate == 0: saturation, `inflight` requests outstanding
/// per connection for `seconds`.
///
/// Requests in flight live in a fixed ring of slots, and a slot is reused
/// only once its request has been answered, so the generator's memory does
/// not grow with the number of requests it sends: the process's peak RSS is
/// the server's and the inputs'. A request is encoded before it is due, so
/// on the timed path the sender only waits and writes.
class LoadGen {
 public:
  LoadGen(std::uint16_t port, const tensor::Matrix& reference,
          std::uint32_t roots, std::uint64_t seed)
      : reference_(reference),
        roots_(roots),
        rng_(seed),
        slots_(std::make_unique<Slot[]>(kSlots)) {
    for (auto& c : conns_) {
      std::string err;
      c.fd = serve::connect_to(port, err);
      if (!c.fd.valid()) throw std::runtime_error("loadgen connect: " + err);
    }
  }

  Phase run(double rate, double seconds, int inflight,
            std::vector<std::vector<std::uint32_t>>* keep_roots) {
    // Ids are unique across phases, so a late answer to an earlier phase
    // can never be taken for one of this phase's requests.
    base_id_ = next_id_;
    for (std::size_t s = 0; s < kSlots; ++s) slots_[s].id.store(kFree);
    answers_.clear();
    received_.store(0);
    stop_.store(false);
    mismatches_ = 0;
    checked_ = 0;

    Phase ph;
    start_ = Clock::now() + std::chrono::milliseconds(5);
    const auto end = start_ + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    std::thread receiver([this] { receive_main(); });
    double offset_s = 0.0;
    std::int64_t k = 0;
    for (bool transport_ok = true; transport_ok; ++k) {
      Slot& slot = slots_[static_cast<std::size_t>(k) % kSlots];
      {
        // Saturation keeps at most 2 x inflight requests outstanding.
        std::unique_lock<std::mutex> lock(mu_);
        const bool ready = cv_.wait_until(lock, end, [&] {
          return slot.id.load(std::memory_order_acquire) == kFree &&
                 (rate > 0 || k - received_.load() < 2 * inflight);
        });
        if (!ready) break;
      }
      Clock::time_point due;
      if (rate > 0) {
        offset_s += -std::log(1.0 - rng_.uniform()) / rate;
        due = start_ + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offset_s));
        if (due >= end) break;
      } else if (Clock::now() >= end) {
        break;
      }
      serve::Request req;
      req.request_id = base_id_ + static_cast<std::uint64_t>(k);
      req.vertices.resize(roots_);
      for (auto& v : req.vertices) v = rng_.below(reference_.rows());
      const std::string frame =
          util::frame_encode(serve::kWireFrame, serve::encode_request(req));
      slot.roots = req.vertices;
      if (keep_roots != nullptr) keep_roots->push_back(req.vertices);
      if (rate > 0) {
        std::this_thread::sleep_until(due);
      } else {
        due = Clock::now();
      }
      const auto now = Clock::now();
      ph.lag_ms.push_back(std::max(0.0, std::chrono::duration<double, std::milli>(now - due).count()));
      slot.due_ns.store(due.time_since_epoch().count(), std::memory_order_relaxed);
      slot.id.store(req.request_id, std::memory_order_release);
      transport_ok = write_all(conns_[k % 2].fd.get(), frame);
    }
    ph.sent = k;
    next_id_ = base_id_ + static_cast<std::uint64_t>(k);
    // Drain: every sent request gets up to 2 s to be answered.
    const auto drain_until = Clock::now() + std::chrono::seconds(2);
    while (received_.load() < ph.sent && Clock::now() < drain_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop_.store(true);
    receiver.join();
    ph.wall_s = seconds_since(start_);

    std::sort(answers_.begin(), answers_.end(),
              [](const Answer& a, const Answer& b) { return a.index < b.index; });
    for (const Answer& a : answers_) {
      if (a.ok) {
        ++ph.ok;
        ph.latency_ms.push_back(a.latency_ms);
        ph.done_s.push_back(a.done_s);
      } else {
        ++ph.non_ok;
      }
    }
    ph.transport = ph.sent - static_cast<std::int64_t>(answers_.size());
    ph.checked = checked_;
    ph.mismatches = mismatches_;
    const std::size_t half = ph.latency_ms.size() / 2;
    const auto mid = ph.latency_ms.begin() + static_cast<std::ptrdiff_t>(half);
    ph.p50_first_half = median(std::vector<double>(ph.latency_ms.begin(), mid));
    ph.p50_second_half = median(std::vector<double>(mid, ph.latency_ms.end()));
    return ph;
  }

 private:
  static constexpr std::size_t kSlots = 4096;
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};

  struct Conn {
    serve::Fd fd;
    std::string inbuf;
  };

  /// A request in flight. The sender fills it while `id` is kFree and
  /// publishes it by storing `id`; the receiver frees it once answered.
  struct Slot {
    std::vector<std::uint32_t> roots;
    std::atomic<std::int64_t> due_ns{0};
    std::atomic<std::uint64_t> id{kFree};
  };

  /// One answered request, recorded by the receiver.
  struct Answer {
    std::int64_t index;  // position in the phase's send order
    double latency_ms;
    double done_s;       // completion, s after the phase start
    bool ok;             // OK status and, when checked, matching logits
  };

  void receive_main() {
    char buf[1 << 16];
    for (;;) {
      if (stop_.load()) return;
      pollfd pfds[2] = {{conns_[0].fd.get(), POLLIN, 0},
                        {conns_[1].fd.get(), POLLIN, 0}};
      const int n = ::poll(pfds, 2, 20);
      if (n <= 0) continue;
      for (int c = 0; c < 2; ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t r = serve::sock_read(pfds[c].fd, buf, sizeof(buf));
        if (r <= 0) continue;
        Conn& conn = conns_[c];
        conn.inbuf.append(buf, static_cast<std::size_t>(r));
        for (;;) {
          std::string payload;
          std::size_t consumed = 0;
          if (util::frame_try_decode(serve::kWireFrame, conn.inbuf.data(),
                                     conn.inbuf.size(), payload, consumed) !=
              util::FrameStatus::kOk) {
            break;
          }
          conn.inbuf.erase(0, consumed);
          handle(payload);
        }
      }
    }
  }

  void handle(const std::string& payload) {
    const auto now = Clock::now();
    serve::Response resp;
    std::string err;
    if (!serve::decode_response(payload, resp, err) ||
        resp.request_id < base_id_) {
      return;  // counted as a transport failure: never answered
    }
    Slot& slot = slots_[(resp.request_id - base_id_) % kSlots];
    if (slot.id.load(std::memory_order_acquire) != resp.request_id) return;
    const Clock::time_point due{
        Clock::duration(slot.due_ns.load(std::memory_order_relaxed))};
    Answer a;
    a.index = static_cast<std::int64_t>(resp.request_id - base_id_);
    a.latency_ms = std::chrono::duration<double, std::milli>(now - due).count();
    a.done_s = std::chrono::duration<double>(now - start_).count();
    a.ok = resp.status == serve::Status::kOk;
    if (a.ok && a.index % 20 == 0) {
      ++checked_;
      const std::size_t cols = reference_.cols();
      bool match = resp.rows == roots_ && resp.cols == cols &&
                   resp.logits.size() == roots_ * cols;
      for (std::uint32_t j = 0; match && j < roots_; ++j) {
        const float* want = reference_.row(slot.roots[j]);
        for (std::size_t q = 0; q < cols; ++q) {
          if (std::abs(resp.logits[j * cols + q] - want[q]) > 1e-4f) match = false;
        }
      }
      if (!match) {
        ++mismatches_;
        a.ok = false;
      }
    }
    answers_.push_back(a);
    slot.id.store(kFree, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      received_.fetch_add(1);
    }
    cv_.notify_one();
  }

  const tensor::Matrix& reference_;
  const std::uint32_t roots_;
  util::Xoshiro256 rng_;
  Conn conns_[2];
  std::unique_ptr<Slot[]> slots_;
  Clock::time_point start_;
  std::uint64_t base_id_ = 0;  // request id of this phase's index 0
  std::uint64_t next_id_ = 0;
  // Written by the receiver only; read by the sender after join().
  std::vector<Answer> answers_;
  std::int64_t checked_ = 0;
  std::int64_t mismatches_ = 0;
  std::atomic<std::int64_t> received_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Set-up: Server construction + start until it has answered its first
/// ping and its first inference request (the worker's engine is built and
/// has served once), i.e. until it is ready to serve.
std::unique_ptr<serve::Server> start_server(serve::SnapshotStore& store,
                                            const data::Dataset& ds,
                                            const serve::ServerOptions& so) {
  auto server = std::make_unique<serve::Server>(store, ds.graph, ds.features, so);
  server->start();
  serve::ClientOptions co;
  co.port = server->port();
  serve::RetryingClient client(co);
  serve::Request req;
  serve::Response resp;
  std::string err;
  for (const serve::Op op : {serve::Op::kPing, serve::Op::kInfer}) {
    req.op = op;
    req.request_id += 1;
    req.vertices = {0, 1, 2, 3};
    if (!client.call(req, resp, err) || resp.status != serve::Status::kOk) {
      throw std::runtime_error("server did not answer its first requests: " + err);
    }
  }
  return server;
}

void report_phase(const Phase& ph, const std::string& suffix, Report& report) {
  report.metric("p50_ms_" + suffix, percentile(ph.latency_ms, 50.0), "ms");
  report.metric("p99_ms_" + suffix, percentile(ph.latency_ms, 99.0), "ms");
  report.info("samples_" + suffix, static_cast<double>(ph.latency_ms.size()));
  report.info("offered_rps_" + suffix, static_cast<double>(ph.sent) / ph.wall_s);
  report.info("backlog_ratio_" + suffix, ph.p50_second_half / ph.p50_first_half);
  report.info("non_ok_" + suffix, static_cast<double>(ph.non_ok));
  report.info("transport_failures_" + suffix, static_cast<double>(ph.transport));
}

/// A rate is sustainable when p99 <= 10 ms, at most 0.1% of requests fail
/// and the backlog does not grow (second-half p50 within 1.5x the first).
bool sustainable(const Phase& ph) {
  const double failed = static_cast<double>(ph.transport + ph.non_ok);
  return !ph.latency_ms.empty() && percentile(ph.latency_ms, 99.0) <= 10.0 &&
         failed <= 0.001 * static_cast<double>(ph.sent) &&
         ph.p50_second_half <= 1.5 * ph.p50_first_half;
}

/// Highest sustainable open-loop rate, by bisection between 0 and the
/// saturated throughput. A rate fails only when a second probe at it fails
/// too: one stall of a shared host fails a short probe at any rate, and a
/// single failed probe at a low rate would send the bisection to the floor.
double max_rps(LoadGen& gen, double saturated_rps, int probes,
               double probe_seconds, Report& report) {
  double lo = 0.0;
  double hi = saturated_rps;
  const auto passes = [&](double rate) {
    const Phase ph = gen.run(rate, probe_seconds, 0, nullptr);
    report.count_attempted(ph.sent);
    return sustainable(ph);
  };
  for (int i = 0; i < probes; ++i) {
    const double rate = 0.5 * (lo + hi);
    (passes(rate) || passes(rate) ? lo : hi) = rate;
  }
  return lo;
}

/// Completion rate in consecutive windows of `window_s`, each measured
/// between its first and last completion: responses leave in batches, so
/// counting whole windows would quantize the rate by the batch size.
std::vector<double> window_rates(const Phase& ph, double window_s) {
  std::vector<std::vector<double>> windows;
  for (const double t : ph.done_s) {
    if (t < 0) continue;
    const auto w = static_cast<std::size_t>(t / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(t);
  }
  std::vector<double> rates;
  for (auto& w : windows) {
    if (w.size() < 2) continue;
    const auto [lo, hi] = std::minmax_element(w.begin(), w.end());
    if (*hi > *lo) rates.push_back(static_cast<double>(w.size() - 1) / (*hi - *lo));
  }
  return rates;
}

void count_phase(const Phase& ph, Report& report, std::int64_t& mismatches,
                 std::vector<double>& lag) {
  report.count_attempted(ph.sent);
  report.count_failed(ph.transport + ph.non_ok);
  mismatches += ph.mismatches;
  lag.insert(lag.end(), ph.lag_ms.begin(), ph.lag_ms.end());
}

}  // namespace

int run_serve(const Options& opt, Report& report) {
  const ServeSpec s = serve_spec(opt);
  auto t0 = Clock::now();
  const data::Dataset ds = data::make_synthetic(s.data);
  report.info("data_s", seconds_since(t0));

  // Per-layer run on the serving graph: a short training run exercises the
  // training layers; the traced half then replays the open loop's own
  // requests through the engine, served by that run's model.
  LayerTrace in;
  in.ds = &ds;
  in.cfg = s.trace_cfg;
  in.cfg.epochs = std::max(2, static_cast<int>(std::lround(
                                  opt.seconds * 0.25 * s.trace_epochs_per_second)));
  if (opt.mode == "reference") {
    reference_layers(in, report);
    return 0;
  }

  auto snap = std::make_shared<serve::ModelSnapshot>(1, -1, gcn::GcnModel(s.model));
  // Full-graph reference logits for the response check (not set-up).
  gcn::InferenceScratch scratch;
  const tensor::Matrix reference =
      gcn::infer_logits(snap->model, ds.graph, ds.features, scratch, 2);
  serve::SnapshotStore store(snap);

  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  for (int r = 0; r < kSetupReps; ++r) {
    if (server != nullptr) server->stop();
    server.reset();
    t0 = Clock::now();
    server = start_server(store, ds, s.server);
    setup_s.push_back(seconds_since(t0));
  }
  report.metric("setup_s", median(setup_s), "s");

  std::int64_t mismatches = 0;
  std::int64_t checked = 0;
  std::vector<double> lag;
  LoadGen gen(server->port(), reference, s.roots, opt.seed ^ 0x10ad);
  if (opt.mode == "e2e") {
    // At the default window each rate gets well over 1000 samples, so its
    // p99 has at least ten beyond it.
    const Phase low = gen.run(s.low_rps, opt.seconds * 0.45, 0, nullptr);
    const Phase high = gen.run(s.high_rps, opt.seconds * 0.3, 0, nullptr);
    const Phase sat = gen.run(0.0, opt.seconds * 0.25, s.inflight_per_conn, nullptr);
    report_phase(low, "low", report);
    report_phase(high, "high", report);
    // Saturated throughput: median completion rate over 0.5 s windows, so
    // a burst of outside interference moves one window, not the result.
    report.metric("requests_per_s", median(window_rates(sat, 0.5)), "1/s");
    report.info("p50_ms_saturated", percentile(sat.latency_ms, 50.0));
    report.info("non_ok_saturated", static_cast<double>(sat.non_ok));
    if (opt.max_rps) {
      report.metric("max_rps",
                    max_rps(gen, report.value("requests_per_s"), 6, 4.0, report),
                    "1/s");
    }
    for (const Phase* ph : {&low, &high, &sat}) {
      count_phase(*ph, report, mismatches, lag);
      checked += ph->checked;
    }
  } else {
    const Phase high = gen.run(s.high_rps, opt.seconds * 0.3, 0, &in.requests);
    report_phase(high, "high", report);
    count_phase(high, report, mismatches, lag);
    checked += high.checked;
    server->stop();

    const data::FeatureStore view = data::FeatureStore::view(ds.features);
    in.serve_store = &view;
    in.engine_threads = s.server.infer_threads;
    in.chrome_path = opt.workdir + "/traces/" + opt.workload + "-" +
                     std::to_string(opt.seed) + ".json";
    trace_layers(in, report);
    // Time a request spends outside the engine: queueing, batching window,
    // IO thread and wire.
    report.metric("serve.wait_ms",
                  percentile(high.latency_ms, 50.0) -
                      report.value("serve.engine_repeat_ms"),
                  "ms");
  }
  if (server != nullptr) server->stop();
  // Mismatched responses are counted as failed requests.
  report.metric("failed_ratio",
                static_cast<double>(report.failed()) /
                    std::max<double>(1.0, static_cast<double>(report.attempted())),
                "ratio");
  report.metric("loadgen.lag_p99_ms", percentile(lag, 99.0), "ms");
  report.info("logit_checks", static_cast<double>(checked));
  report.info("logit_mismatches", static_cast<double>(mismatches));
  report.check("logits_match_full_graph", mismatches == 0 && checked > 0);
  return 0;
}

}  // namespace bench
