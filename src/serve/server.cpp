#include "serve/server.hpp"

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"

namespace gsgcn::serve {

namespace {

// epoll_event.data.u64 tags for the non-connection fds. Connection ids
// start at 16 so they can never collide.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kShutdownTag = 2;

// Housekeeping cadence: idle reaping, queue-depth gauge, accept
// pause/resume, and the drain-complete check all run at least this often.
constexpr int kEpollTimeoutMs = 20;

void epoll_add(int epfd, int fd, std::uint64_t tag, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error(std::string("epoll_ctl add: ") +
                             std::strerror(errno));
  }
}

void eventfd_drain(int fd) {
  std::uint64_t n = 0;
  // Nonblocking eventfd: one read clears the counter (or EAGAIN).
  [[maybe_unused]] ssize_t r = ::read(fd, &n, sizeof(n));
}

void eventfd_signal(int fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(fd, &one, sizeof(one));
}

}  // namespace

Server::Server(SnapshotStore& store, const graph::CsrGraph& graph,
               const tensor::Matrix& features, ServerOptions options)
    : store_(store),
      graph_(graph),
      owned_view_(data::FeatureStore::view(features)),
      features_(&owned_view_),
      opts_(std::move(options)),
      queue_(opts_.queue_capacity) {}

Server::Server(SnapshotStore& store, const graph::CsrGraph& graph,
               const data::FeatureStore& features, ServerOptions options)
    : store_(store),
      graph_(graph),
      features_(&features),
      opts_(std::move(options)),
      queue_(opts_.queue_capacity) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_.exchange(true)) {
    throw std::logic_error("Server::start called twice");
  }
  std::string err;
  listener_ = create_listener(opts_.port, opts_.listen_backlog, err);
  if (!listener_.valid()) {
    throw std::runtime_error("Server: " + err);
  }
  if (!set_nonblocking(listener_.get())) {
    throw std::runtime_error("Server: set_nonblocking(listener) failed");
  }
  port_ = local_port(listener_.get());

  epoll_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  wake_efd_ = Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  shutdown_efd_ = Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!epoll_.valid() || !wake_efd_.valid() || !shutdown_efd_.valid()) {
    throw std::runtime_error("Server: epoll/eventfd creation failed");
  }
  shutdown_fd_.store(shutdown_efd_.get());

  epoll_add(epoll_.get(), listener_.get(), kListenerTag, EPOLLIN);
  epoll_add(epoll_.get(), wake_efd_.get(), kWakeTag, EPOLLIN);
  epoll_add(epoll_.get(), shutdown_efd_.get(), kShutdownTag, EPOLLIN);

  const int nw = opts_.num_workers < 1 ? 1 : opts_.num_workers;
  workers_.reserve(static_cast<std::size_t>(nw));
  for (int i = 0; i < nw; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  io_thread_ = std::thread([this] { io_main(); });
}

void Server::request_shutdown() {
  const int fd = shutdown_fd_.load(std::memory_order_acquire);
  if (fd >= 0) eventfd_signal(fd);  // async-signal-safe: one write(2)
}

void Server::wait() {
  if (io_thread_.joinable()) io_thread_.join();
}

void Server::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  request_shutdown();
  wait();
  queue_.close();  // io_main already closed it; harmless repeat
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

// ---------------------------------------------------------------------------
// IO thread
// ---------------------------------------------------------------------------

void Server::io_main() {
  std::array<epoll_event, 64> events{};
  for (;;) {
    const int n = ::epoll_wait(epoll_.get(), events.data(),
                               static_cast<int>(events.size()),
                               kEpollTimeoutMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing recoverable
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t ev = events[i].events;
      if (tag == kListenerTag) {
        accept_ready();
      } else if (tag == kWakeTag) {
        eventfd_drain(wake_efd_.get());
        drain_completions();
      } else if (tag == kShutdownTag) {
        eventfd_drain(shutdown_efd_.get());
        begin_drain();
      } else {
        if (conns_.find(tag) == conns_.end()) continue;  // closed this pass
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(tag);
          continue;
        }
        bool alive = true;
        if ((ev & EPOLLIN) != 0) alive = conn_readable(tag);
        if (alive && (ev & EPOLLOUT) != 0) conn_flush(tag);
      }
    }
    housekeeping();
    if (draining_ && drain_complete()) break;
  }
  // Drain finished (or epoll died): every admitted request has been
  // answered and flushed. Tear down remaining connections.
  conns_.clear();
}

void Server::begin_drain() {
  if (draining_) return;
  draining_ = true;
  listener_.reset();  // closing removes it from the epoll set
  queue_.close();
  GSGCN_COUNTER_INC("serve.drain");
}

bool Server::drain_complete() const {
  if (total_inflight_ != 0 || queue_.depth() != 0) return false;
  for (const auto& [id, conn] : conns_) {
    if (conn.out_pos < conn.outbuf.size()) return false;
  }
  return true;
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: wait for next event
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    Conn conn;
    conn.fd = Fd(fd);
    conn.last_activity = std::chrono::steady_clock::now();
    try {
      epoll_add(epoll_.get(), fd, id, EPOLLIN);
    } catch (const std::exception&) {
      continue;  // Conn destructor closes the fd
    }
    conns_.emplace(id, std::move(conn));
    GSGCN_COUNTER_INC("serve.accepted");
  }
}

bool Server::conn_readable(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return false;
  Conn& conn = it->second;

  char buf[4096];
  for (;;) {
    const ssize_t r = sock_read(conn.fd.get(), buf, sizeof(buf));
    if (r > 0) {
      conn.inbuf.append(buf, static_cast<std::size_t>(r));
      conn.last_activity = std::chrono::steady_clock::now();
      if (static_cast<std::size_t>(r) < sizeof(buf)) break;
      continue;
    }
    if (r == 0) {  // peer closed; anything unanswered is moot
      close_conn(id);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(id);
    return false;
  }

  // Parse every complete frame buffered so far.
  while (!conn.closing) {
    std::string payload;
    std::size_t consumed = 0;
    const util::FrameStatus st = util::frame_try_decode(
        kWireFrame, conn.inbuf.data(), conn.inbuf.size(), payload, consumed);
    if (st == util::FrameStatus::kNeedMore) break;
    if (st != util::FrameStatus::kOk) {
      // Garbage on the wire: answer once, then close. Never crash, never
      // guess at a resync point inside a corrupt stream.
      GSGCN_COUNTER_INC("serve.protocol_errors");
      conn.closing = true;
      return send_frame(id, make_error_frame(Status::kBadRequest,
                                             std::string("bad frame: ") +
                                                 util::frame_status_name(st)));
    }
    conn.inbuf.erase(0, consumed);
    if (!handle_payload(id, payload)) return false;
    // handle_payload may have flagged the connection for close.
    auto again = conns_.find(id);
    if (again == conns_.end()) return false;
  }
  return true;
}

bool Server::handle_payload(std::uint64_t id, const std::string& payload) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return false;
  Conn& conn = it->second;

  Request req;
  std::string err;
  if (!decode_request(payload, req, err)) {
    GSGCN_COUNTER_INC("serve.protocol_errors");
    conn.closing = true;
    return send_frame(id, make_error_frame(Status::kBadRequest, err));
  }
  GSGCN_COUNTER_INC("serve.requests");

  if (req.op == Op::kPing) {
    GSGCN_COUNTER_INC("serve.pings");
    Response resp;
    resp.request_id = req.request_id;
    resp.snapshot_seq = store_.current()->seq;
    return send_frame(id,
                      util::frame_encode(kWireFrame, encode_response(resp)));
  }

  Ticket ticket;
  ticket.conn_id = id;
  ticket.enqueued = std::chrono::steady_clock::now();
  const std::uint32_t deadline_ms =
      req.deadline_ms != 0 ? req.deadline_ms : opts_.default_deadline_ms;
  if (deadline_ms != 0) {
    ticket.deadline = ticket.enqueued + std::chrono::milliseconds(deadline_ms);
    ticket.has_deadline = true;
  }
  ticket.request = std::move(req);

  const std::uint64_t request_id = ticket.request.request_id;
  switch (queue_.push(std::move(ticket))) {
    case Admit::kAdmitted:
      ++conn.inflight;
      ++total_inflight_;
      return true;
    case Admit::kQueueFull: {
      GSGCN_COUNTER_INC("serve.shed_queue_full");
      Response resp;
      resp.status = Status::kOverloaded;
      resp.request_id = request_id;
      resp.message = "admission queue full";
      return send_frame(id,
                        util::frame_encode(kWireFrame, encode_response(resp)));
    }
    case Admit::kClosed: {
      GSGCN_COUNTER_INC("serve.rejected_shutdown");
      Response resp;
      resp.status = Status::kShuttingDown;
      resp.request_id = request_id;
      resp.message = "server draining";
      return send_frame(id,
                        util::frame_encode(kWireFrame, encode_response(resp)));
    }
  }
  return true;
}

bool Server::send_frame(std::uint64_t id, std::string framed) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return false;
  Conn& conn = it->second;
  // Compact lazily: drop already-flushed prefix once it dominates.
  if (conn.out_pos > 0 && conn.out_pos * 2 > conn.outbuf.size()) {
    conn.outbuf.erase(0, conn.out_pos);
    conn.out_pos = 0;
  }
  conn.outbuf.append(framed);
  return conn_flush(id);
}

bool Server::conn_flush(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return false;
  Conn& conn = it->second;

  while (conn.out_pos < conn.outbuf.size()) {
    const ssize_t w = sock_write(conn.fd.get(), conn.outbuf.data() + conn.out_pos,
                                 conn.outbuf.size() - conn.out_pos);
    if (w > 0) {
      conn.out_pos += static_cast<std::size_t>(w);
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    close_conn(id);  // EPIPE/ECONNRESET/...: peer is gone
    return false;
  }
  if (conn.out_pos == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_pos = 0;
    if (conn.closing) {
      close_conn(id);
      return false;
    }
  }
  update_epollout(id, conn);
  return true;
}

void Server::update_epollout(std::uint64_t id, Conn& conn) {
  const bool want = conn.out_pos < conn.outbuf.size();
  if (want == conn.want_write) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = id;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

void Server::close_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  // Completions for this conn's admitted tickets will be discarded on
  // arrival, so settle their inflight accounting now.
  total_inflight_ -= it->second.inflight;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, it->second.fd.get(), nullptr);
  conns_.erase(it);
}

void Server::drain_completions() {
  std::vector<Completion> batch;
  {
    util::MutexLock lock(comp_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // conn died; accounting done at close
    Conn& conn = it->second;
    if (conn.inflight > 0) {
      --conn.inflight;
      --total_inflight_;
    }
    send_frame(c.conn_id, std::move(c.framed));
  }
}

void Server::housekeeping() {
  GSGCN_GAUGE_SET("serve.queue_depth",
                  static_cast<std::int64_t>(queue_.depth()));
  if (opts_.idle_timeout_ms > 0) {
    const auto now = std::chrono::steady_clock::now();
    const auto limit = std::chrono::duration<double, std::milli>(
        opts_.idle_timeout_ms);
    std::vector<std::uint64_t> stale;
    for (const auto& [id, conn] : conns_) {
      if (now - conn.last_activity > limit) stale.push_back(id);
    }
    for (const std::uint64_t id : stale) {
      GSGCN_COUNTER_INC("serve.idle_reaped");
      close_conn(id);
    }
  }
  pause_or_resume_accept();
}

void Server::pause_or_resume_accept() {
  if (draining_ || !listener_.valid()) return;
  const std::size_t depth = queue_.depth();
  if (!accept_paused_ && depth >= opts_.queue_capacity) {
    // Queue saturated: push backpressure into the kernel accept queue
    // instead of admitting connections we would only shed.
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listener_.get(), nullptr) ==
        0) {
      accept_paused_ = true;
      GSGCN_COUNTER_INC("serve.accept_paused");
    }
  } else if (accept_paused_ && depth <= opts_.queue_capacity / 2) {
    try {
      epoll_add(epoll_.get(), listener_.get(), kListenerTag, EPOLLIN);
      accept_paused_ = false;
    } catch (const std::exception&) {
      // Retried on the next housekeeping pass.
    }
  }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

void Server::post_completions(std::vector<Completion> batch) {
  if (batch.empty()) return;
  {
    util::MutexLock lock(comp_mu_);
    for (Completion& c : batch) completions_.push_back(std::move(c));
  }
  eventfd_signal(wake_efd_.get());
}

void Server::worker_main() {
  InferenceEngine engine(graph_, *features_);
  const auto window = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(opts_.batch_window_ms));

  std::vector<Ticket> batch;
  std::vector<Ticket> expired;
  std::vector<Response> responses;
  while (queue_.pop_batch(opts_.max_batch, window, batch, expired)) {
    std::vector<Completion> out;
    out.reserve(batch.size() + expired.size());

    for (const Ticket& t : expired) {
      GSGCN_COUNTER_INC("serve.shed_deadline");
      Response resp;
      resp.status = Status::kOverloaded;
      resp.request_id = t.request.request_id;
      resp.message = "deadline expired in queue";
      out.push_back(Completion{
          t.conn_id, util::frame_encode(kWireFrame, encode_response(resp))});
    }

    if (!batch.empty()) {
      GSGCN_TRACE_SPAN("serve.batch");
      const std::shared_ptr<const ModelSnapshot> snap = store_.current();
      responses.clear();
      try {
        engine.run_batch(*snap, batch, responses, opts_.infer_threads);
      } catch (const std::exception& e) {
        responses.clear();
        for (const Ticket& t : batch) {
          Response resp;
          resp.status = Status::kInternalError;
          resp.request_id = t.request.request_id;
          resp.snapshot_seq = snap->seq;
          resp.message = e.what();
          responses.push_back(std::move(resp));
        }
      }
      GSGCN_COUNTER_INC("serve.batches");
      for (std::size_t i = 0; i < responses.size(); ++i) {
        const Response& resp = responses[i];
        switch (resp.status) {
          case Status::kOk:
            GSGCN_COUNTER_INC("serve.ok_replies");
            break;
          case Status::kBadRequest:
            GSGCN_COUNTER_INC("serve.bad_requests");
            break;
          case Status::kInternalError:
            GSGCN_COUNTER_INC("serve.internal_errors");
            break;
          default:
            break;
        }
        out.push_back(Completion{
            batch[i].conn_id,
            util::frame_encode(kWireFrame, encode_response(resp))});
      }
    }
    post_completions(std::move(out));
  }
}

}  // namespace gsgcn::serve
