#pragma once
// Fault-tolerant online inference server.
//
// Thread model — single-writer discipline end to end:
//
//   IO thread   owns every fd, every connection buffer, and the epoll set.
//               It accepts, reads, frames, decodes, admits, and writes.
//               Nothing else ever touches a socket, so there are no
//               fd-lifetime races and no per-connection locks.
//   workers     own nothing but the admission queue's output: they pop
//               ticket batches, run the engine on an immutable snapshot,
//               and hand framed response bytes back through a mutex-guarded
//               completion queue + eventfd wakeup.
//   watcher     (owned by the caller) publishes snapshots into the
//               SnapshotStore; workers pick up the new pointer on their
//               next batch, in-flight batches finish on the old one.
//
// Overload behavior, in order of the defenses hit as load rises:
//   1. batching amortizes forward-pass cost (queue coalesces a window);
//   2. the bounded queue rejects with OVERLOADED once full;
//   3. tickets whose deadline lapsed while queued are shed pre-compute;
//   4. above a queue high-watermark the listener leaves the epoll set, so
//      new connections back up in the kernel accept queue (bounded by
//      listen backlog) instead of growing server-side state.
//
// Failure behavior: malformed, truncated, oversized, or CRC-failing
// frames get a BAD_REQUEST error frame and a close — never a crash, never
// a hang. Idle or stuck-writing connections are reaped on a timeout.
// SIGTERM (request_shutdown — async-signal-safe) drains: admitted work is
// answered, new work gets SHUTTING_DOWN, then the loop exits cleanly.
//
// Accounting: every outcome bumps one process-wide obs counter —
// serve.accepted, .requests, .ok_replies, .pings, .shed_queue_full,
// .shed_deadline, .bad_requests, .protocol_errors, .internal_errors,
// .rejected_shutdown, .idle_reaped, .batches — readable at any time with
// obs::Registry::instance().scrape().

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "data/feature_store.hpp"
#include "graph/csr.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "serve/socket.hpp"
#include "tensor/matrix.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace gsgcn::serve {

struct ServerOptions {
  std::uint16_t port = 0;        // 0 = kernel-assigned (read back via port())
  int listen_backlog = 64;
  int num_workers = 1;
  int infer_threads = 1;         // threads per engine forward pass
  std::size_t queue_capacity = 64;
  std::size_t max_batch = 8;
  double batch_window_ms = 2.0;
  double idle_timeout_ms = 30000.0;    // reap conns with no IO progress
  std::uint32_t default_deadline_ms = 1000;  // 0 = requests never expire
};

class Server {
 public:
  /// `store` must outlive the server; `graph`/`features` are the serving
  /// graph (requests address its vertex ids). This overload wraps the
  /// matrix in a zero-copy fp32 FeatureStore view.
  Server(SnapshotStore& store, const graph::CsrGraph& graph,
         const tensor::Matrix& features, ServerOptions options);

  /// Serve from a compressed / mmap-backed feature store (must outlive
  /// the server). Worker engines widen rows on the fly during gathers.
  Server(SnapshotStore& store, const graph::CsrGraph& graph,
         const data::FeatureStore& features, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the IO thread + workers. Throws on bind
  /// failure. Idempotence is not supported: one start per Server.
  void start();

  /// Begin graceful drain. Async-signal-safe (one write(2) to an eventfd):
  /// call it straight from a SIGTERM handler.
  void request_shutdown();

  /// request_shutdown() + join everything. Safe to call twice.
  void stop();

  /// Block until the IO loop has exited (drain complete). start() must
  /// have been called.
  void wait();

  std::uint16_t port() const { return port_; }

 private:
  struct Conn {
    Fd fd;
    std::string inbuf;
    std::string outbuf;
    std::size_t out_pos = 0;
    std::chrono::steady_clock::time_point last_activity{};
    std::uint64_t inflight = 0;  // admitted tickets awaiting completion
    bool want_write = false;     // current EPOLLOUT interest
    bool closing = false;        // flush outbuf, then close
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::string framed;
  };

  void io_main();
  void worker_main();

  // IO-thread helpers (all conn state is IO-thread-confined). The bool
  // returns say whether the connection still exists afterwards — a write
  // error inside any of them may close it.
  void accept_ready();
  bool conn_readable(std::uint64_t id);
  bool conn_flush(std::uint64_t id);
  bool handle_payload(std::uint64_t id, const std::string& payload);
  bool send_frame(std::uint64_t id, std::string framed);
  void close_conn(std::uint64_t id);
  void begin_drain();
  void drain_completions();
  void housekeeping();
  void update_epollout(std::uint64_t id, Conn& conn);
  void pause_or_resume_accept();
  bool drain_complete() const;

  void post_completions(std::vector<Completion> batch) EXCLUDES(comp_mu_);

  SnapshotStore& store_;
  const graph::CsrGraph& graph_;
  // The legacy Matrix ctor materializes owned_view_ and points features_
  // at it; the FeatureStore ctor points at the caller's store directly.
  data::FeatureStore owned_view_;
  const data::FeatureStore* features_;
  const ServerOptions opts_;

  AdmissionQueue queue_;

  Fd listener_;
  Fd epoll_;
  Fd wake_efd_;      // workers -> IO thread: completions ready
  Fd shutdown_efd_;  // anyone -> IO thread: start draining
  std::uint16_t port_ = 0;
  std::atomic<int> shutdown_fd_{-1};  // for async-signal-safe access

  std::map<std::uint64_t, Conn> conns_;  // IO-thread-confined
  std::uint64_t next_conn_id_ = 16;      // ids 0/1/2 tag listener/efds
  std::uint64_t total_inflight_ = 0;     // IO-thread-confined
  bool draining_ = false;                // IO-thread-confined
  bool accept_paused_ = false;           // IO-thread-confined

  util::Mutex comp_mu_;
  std::vector<Completion> completions_ GUARDED_BY(comp_mu_);

  std::thread io_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace gsgcn::serve
