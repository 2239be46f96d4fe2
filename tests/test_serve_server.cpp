// End-to-end server tests over real loopback sockets: the happy path,
// every degraded path (malformed frames, bad CRC, overload shedding,
// deadline expiry, injected engine faults), graceful drain, idle reaping,
// and hot snapshot swap under live traffic.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/socket.hpp"
#include "util/fault.hpp"
#include "util/frame.hpp"

namespace gsgcn::serve {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Raw-socket helpers: the tests below need to send deliberately broken
// bytes and pipeline without the client's retry logic in the way.
// ---------------------------------------------------------------------------

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Read framed responses until `count` decode or the peer closes. Returns
/// the number of responses decoded.
std::size_t recv_responses(int fd, std::size_t count,
                           std::vector<Response>& out) {
  std::string inbuf;
  out.clear();
  char buf[4096];
  while (out.size() < count) {
    std::string payload;
    std::size_t consumed = 0;
    const util::FrameStatus st = util::frame_try_decode(
        kWireFrame, inbuf.data(), inbuf.size(), payload, consumed);
    if (st == util::FrameStatus::kOk) {
      inbuf.erase(0, consumed);
      Response resp;
      std::string err;
      if (!decode_response(payload, resp, err)) return out.size();
      out.push_back(std::move(resp));
      continue;
    }
    if (st != util::FrameStatus::kNeedMore) return out.size();
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) return out.size();
    inbuf.append(buf, static_cast<std::size_t>(r));
  }
  return out.size();
}

std::string framed_request(const Request& req) {
  return util::frame_encode(kWireFrame, encode_request(req));
}

Request infer_request(std::vector<graph::Vid> vertices, std::uint64_t id,
                      std::uint32_t deadline_ms = 0) {
  Request req;
  req.op = Op::kInfer;
  req.request_id = id;
  req.deadline_ms = deadline_ms;
  req.vertices = std::move(vertices);
  return req;
}

// ---------------------------------------------------------------------------
// Fixture: a small synthetic graph served by a freshly started server.
// ---------------------------------------------------------------------------

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FaultInjector::instance().clear();
    data::SyntheticParams p;
    p.num_vertices = 200;
    p.num_classes = 4;
    p.feature_dim = 8;
    p.avg_degree = 5.0;
    p.seed = 9;
    ds_ = data::make_synthetic(p);
    mc_.in_dim = ds_.feature_dim();
    mc_.hidden_dim = 6;
    mc_.num_classes = ds_.num_classes();
    mc_.num_layers = 2;
    mc_.seed = 21;
    store_ = std::make_unique<SnapshotStore>(
        std::make_shared<const ModelSnapshot>(0, -1, gcn::GcnModel(mc_)));
  }

  void TearDown() override {
    if (server_) server_->stop();
    util::FaultInjector::instance().clear();
  }

  /// Start a server with `opts` (port always kernel-assigned).
  void start_server(ServerOptions opts) {
    opts.port = 0;
    baseline_ = obs::Registry::instance().scrape();
    server_ = std::make_unique<Server>(*store_, ds_.graph, ds_.features,
                                       std::move(opts));
    server_->start();
    ASSERT_NE(server_->port(), 0);
  }

  RetryingClient make_client(std::uint64_t seed = 1) {
    ClientOptions c;
    c.port = server_->port();
    c.seed = seed;
    c.recv_timeout_ms = 10000.0;
    return RetryingClient(c);
  }

  /// How often this test's server counted outcome serve.<name>: the
  /// process-wide counter's growth since start_server().
  std::uint64_t served(const std::string& name) const {
    const auto value = [&name](const obs::MetricsSnapshot& snap) {
      for (const auto& [n, v] : snap.counters) {
        if (n == "serve." + name) return v;
      }
      return 0.0;
    };
    return static_cast<std::uint64_t>(
        value(obs::Registry::instance().scrape()) - value(baseline_));
  }

  Fd raw_connect() {
    std::string err;
    Fd fd = connect_to(server_->port(), err);
    EXPECT_TRUE(fd.valid()) << err;
    return fd;
  }

  data::Dataset ds_;
  gcn::ModelConfig mc_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<Server> server_;
  obs::MetricsSnapshot baseline_;
};

TEST_F(ServeServerTest, ServesLogitsAndPings) {
  start_server(ServerOptions{});
  RetryingClient client = make_client();

  Response resp;
  std::string err;
  ASSERT_TRUE(client.call(infer_request({1, 2, 3}, 7), resp, err)) << err;
  EXPECT_EQ(resp.status, Status::kOk) << resp.message;
  EXPECT_EQ(resp.request_id, 7u);
  EXPECT_EQ(resp.rows, 3u);
  EXPECT_EQ(resp.cols, static_cast<std::uint32_t>(ds_.num_classes()));
  ASSERT_EQ(resp.logits.size(), 3u * ds_.num_classes());

  Request ping;
  ping.op = Op::kPing;
  ping.request_id = 8;
  ASSERT_TRUE(client.call(ping, resp, err)) << err;
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.snapshot_seq, 0u);  // initial snapshot

  // Pings are answered inline on the IO thread and counted separately
  // from worker OK replies.
  EXPECT_EQ(served("ok_replies"), 1u);
  EXPECT_EQ(served("pings"), 1u);
  EXPECT_EQ(served("accepted"), 1u);
}

TEST_F(ServeServerTest, PipelinedRequestsComeBackInOrder) {
  start_server(ServerOptions{});
  Fd fd = raw_connect();
  std::string burst;
  constexpr std::uint64_t kN = 12;
  for (std::uint64_t i = 0; i < kN; ++i) {
    burst += framed_request(
        infer_request({static_cast<graph::Vid>(i), 100}, 1000 + i));
  }
  ASSERT_TRUE(send_all(fd.get(), burst));
  std::vector<Response> resps;
  ASSERT_EQ(recv_responses(fd.get(), kN, resps), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(resps[i].request_id, 1000 + i) << "order preserved";
    EXPECT_EQ(resps[i].status, Status::kOk) << resps[i].message;
  }
}

TEST_F(ServeServerTest, GarbageBytesGetErrorFrameAndCloseNotCrash) {
  start_server(ServerOptions{});
  {
    Fd fd = raw_connect();
    ASSERT_TRUE(send_all(fd.get(), "this is definitely not a frame......"));
    std::vector<Response> resps;
    // The server answers one BAD_REQUEST error frame, then closes.
    ASSERT_EQ(recv_responses(fd.get(), 2, resps), 1u);
    EXPECT_EQ(resps[0].status, Status::kBadRequest);
    char c;
    EXPECT_EQ(::recv(fd.get(), &c, 1, 0), 0) << "server should close";
  }
  EXPECT_GE(served("protocol_errors"), 1u);

  // The process survived: a fresh connection still gets real answers.
  RetryingClient client = make_client();
  Response resp;
  std::string err;
  ASSERT_TRUE(client.call(infer_request({5}, 1), resp, err)) << err;
  EXPECT_EQ(resp.status, Status::kOk);
}

TEST_F(ServeServerTest, CorruptCrcGetsErrorFrameAndClose) {
  start_server(ServerOptions{});
  Fd fd = raw_connect();
  std::string framed = framed_request(infer_request({1}, 1));
  framed.back() ^= 0x20;  // flip one payload bit: CRC now fails
  ASSERT_TRUE(send_all(fd.get(), framed));
  std::vector<Response> resps;
  ASSERT_EQ(recv_responses(fd.get(), 2, resps), 1u);
  EXPECT_EQ(resps[0].status, Status::kBadRequest);
  EXPECT_NE(resps[0].message.find("bad_crc"), std::string::npos)
      << resps[0].message;
  EXPECT_GE(served("protocol_errors"), 1u);
}

TEST_F(ServeServerTest, OversizedFrameRejectedWithoutAllocation) {
  start_server(ServerOptions{});
  Fd fd = raw_connect();
  std::string framed = framed_request(infer_request({1}, 1));
  const std::uint64_t huge = ~0ull;  // 16 EB claimed payload
  std::memcpy(framed.data() + 12, &huge, sizeof(huge));
  ASSERT_TRUE(send_all(fd.get(), framed));
  std::vector<Response> resps;
  ASSERT_EQ(recv_responses(fd.get(), 2, resps), 1u);
  EXPECT_EQ(resps[0].status, Status::kBadRequest);
  EXPECT_NE(resps[0].message.find("too_large"), std::string::npos);
}

TEST_F(ServeServerTest, OutOfRangeVertexFailsRequestButKeepsConnection) {
  start_server(ServerOptions{});
  RetryingClient client = make_client();
  Response resp;
  std::string err;
  ASSERT_TRUE(client.call(
      infer_request({ds_.graph.num_vertices() + 5}, 1), resp, err))
      << err;
  EXPECT_EQ(resp.status, Status::kBadRequest);
  EXPECT_NE(resp.message.find("out of range"), std::string::npos);
  // Same connection keeps working.
  ASSERT_TRUE(client.call(infer_request({0}, 2), resp, err)) << err;
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(client.stats().reconnects, 1u);  // only the initial connect
  EXPECT_EQ(served("bad_requests"), 1u);
}

TEST_F(ServeServerTest, FullQueueShedsWithOverloaded) {
  // One slow worker (every batch sleeps 40 ms via the injected delay), a
  // two-slot queue, and a 30-request pipelined burst: the queue fills,
  // and everything past the watermark is answered OVERLOADED inline.
  util::FaultInjector::instance().arm_probability(
      "serve.infer", 1.0, util::FaultKind::kDelay, /*delay_ms=*/40);
  ServerOptions opts;
  opts.queue_capacity = 2;
  opts.max_batch = 1;
  opts.batch_window_ms = 0.0;
  opts.default_deadline_ms = 0;  // isolate queue-full from deadline shed
  start_server(opts);

  Fd fd = raw_connect();
  std::string burst;
  constexpr std::uint64_t kN = 30;
  for (std::uint64_t i = 0; i < kN; ++i) {
    burst += framed_request(infer_request({1}, i));
  }
  ASSERT_TRUE(send_all(fd.get(), burst));
  std::vector<Response> resps;
  ASSERT_EQ(recv_responses(fd.get(), kN, resps), kN);

  std::size_t ok = 0, shed = 0;
  for (const Response& r : resps) {
    if (r.status == Status::kOk) ++ok;
    if (r.status == Status::kOverloaded) ++shed;
  }
  EXPECT_EQ(ok + shed, kN);
  EXPECT_GT(ok, 0u) << "admitted work still completes under overload";
  EXPECT_GT(shed, 0u) << "a bounded queue must shed";
  EXPECT_EQ(served("shed_queue_full"), shed);
}

TEST_F(ServeServerTest, ExpiredDeadlinesAreShedBeforeCompute) {
  // Worker batches take ~40 ms; requests carry a 5 ms deadline. The first
  // request is popped fresh, everything queued behind it expires in line.
  util::FaultInjector::instance().arm_probability(
      "serve.infer", 1.0, util::FaultKind::kDelay, /*delay_ms=*/40);
  ServerOptions opts;
  opts.queue_capacity = 16;
  opts.max_batch = 1;
  opts.batch_window_ms = 0.0;
  start_server(opts);

  Fd fd = raw_connect();
  std::string burst;
  constexpr std::uint64_t kN = 5;
  for (std::uint64_t i = 0; i < kN; ++i) {
    burst += framed_request(infer_request({1}, i, /*deadline_ms=*/5));
  }
  ASSERT_TRUE(send_all(fd.get(), burst));
  std::vector<Response> resps;
  ASSERT_EQ(recv_responses(fd.get(), kN, resps), kN);

  std::size_t shed = 0;
  for (const Response& r : resps) {
    if (r.status == Status::kOverloaded) {
      ++shed;
      EXPECT_NE(r.message.find("deadline"), std::string::npos) << r.message;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(served("shed_deadline"), shed);
}

TEST_F(ServeServerTest, EngineFaultMapsToInternalErrorAndRecovers) {
  util::FaultInjector::instance().arm("serve.infer", 1,
                                      util::FaultKind::kThrow);
  start_server(ServerOptions{});
  RetryingClient client = make_client();
  Response resp;
  std::string err;
  ASSERT_TRUE(client.call(infer_request({3}, 1), resp, err)) << err;
  EXPECT_EQ(resp.status, Status::kInternalError);
  EXPECT_GE(served("internal_errors"), 1u);
  // One-shot fault: the very next request succeeds on the same server.
  ASSERT_TRUE(client.call(infer_request({3}, 2), resp, err)) << err;
  EXPECT_EQ(resp.status, Status::kOk);
}

TEST_F(ServeServerTest, GracefulDrainAnswersInflightThenExits) {
  // Slow batches so shutdown arrives while work is queued.
  util::FaultInjector::instance().arm_probability(
      "serve.infer", 1.0, util::FaultKind::kDelay, /*delay_ms=*/30);
  ServerOptions opts;
  opts.max_batch = 1;
  opts.batch_window_ms = 0.0;
  opts.default_deadline_ms = 0;
  start_server(opts);

  Fd fd = raw_connect();
  std::string burst;
  constexpr std::uint64_t kN = 4;
  for (std::uint64_t i = 0; i < kN; ++i) {
    burst += framed_request(infer_request({2}, i));
  }
  ASSERT_TRUE(send_all(fd.get(), burst));
  std::this_thread::sleep_for(50ms);  // let the IO thread admit them
  server_->request_shutdown();

  // Every admitted request is still answered through the drain.
  std::vector<Response> resps;
  ASSERT_EQ(recv_responses(fd.get(), kN, resps), kN);
  for (const Response& r : resps) {
    EXPECT_EQ(r.status, Status::kOk) << r.message;
  }
  server_->wait();  // IO loop exits once everything is flushed

  // And the listener is gone: new connections are refused.
  std::string err;
  Fd refused = connect_to(server_->port(), err);
  EXPECT_FALSE(refused.valid());
  server_->stop();
  server_.reset();
}

TEST_F(ServeServerTest, RequestsAfterDrainStartAreToldToGoAway) {
  // A connection accepted before the drain keeps its socket; its NEW
  // requests get SHUTTING_DOWN while queued work finishes. The long
  // injected compute keeps request 1 in flight across both sleeps below
  // (the drain cannot complete, so the connection stays open).
  util::FaultInjector::instance().arm_probability(
      "serve.infer", 1.0, util::FaultKind::kDelay, /*delay_ms=*/300);
  ServerOptions opts;
  opts.max_batch = 1;
  opts.batch_window_ms = 0.0;
  opts.default_deadline_ms = 0;
  start_server(opts);

  Fd fd = raw_connect();
  ASSERT_TRUE(send_all(fd.get(), framed_request(infer_request({2}, 1))));
  std::this_thread::sleep_for(50ms);  // in-flight now
  server_->request_shutdown();
  std::this_thread::sleep_for(50ms);  // drain has begun
  ASSERT_TRUE(send_all(fd.get(), framed_request(infer_request({2}, 2))));

  // The SHUTTING_DOWN reject is answered inline and may overtake the
  // slow worker's completion, so match by id rather than arrival order.
  std::vector<Response> resps;
  ASSERT_EQ(recv_responses(fd.get(), 2, resps), 2u);
  bool saw_ok = false, saw_shutdown = false;
  for (const Response& r : resps) {
    if (r.request_id == 1) {
      EXPECT_EQ(r.status, Status::kOk) << r.message;
      saw_ok = true;
    } else if (r.request_id == 2) {
      EXPECT_EQ(r.status, Status::kShuttingDown);
      saw_shutdown = true;
    }
  }
  EXPECT_TRUE(saw_ok && saw_shutdown);
  EXPECT_GE(served("rejected_shutdown"), 1u);
  server_->wait();
}

TEST_F(ServeServerTest, IdleConnectionsAreReaped) {
  ServerOptions opts;
  opts.idle_timeout_ms = 50.0;
  start_server(opts);
  Fd fd = raw_connect();
  // Say nothing. Housekeeping (20 ms cadence) reaps us. A recv timeout
  // bounds the test if reaping ever regresses (it would return -1, not 0).
  timeval tv{};
  tv.tv_sec = 5;
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)),
            0);
  char c;
  const ssize_t r = ::recv(fd.get(), &c, 1, 0);  // blocks until server acts
  EXPECT_EQ(r, 0) << "expected EOF from the idle reaper";
  EXPECT_GE(served("idle_reaped"), 1u);
  // The server itself is fine.
  RetryingClient client = make_client();
  Response resp;
  std::string err;
  ASSERT_TRUE(client.call(infer_request({0}, 1), resp, err)) << err;
  EXPECT_EQ(resp.status, Status::kOk);
}

TEST_F(ServeServerTest, SnapshotSwapMidTrafficDropsNothing) {
  ServerOptions opts;
  opts.num_workers = 2;
  start_server(opts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      RetryingClient client = make_client(/*seed=*/100 + t);
      std::uint64_t id = 0;
      while (!stop.load()) {
        Response resp;
        std::string err;
        if (!client.call(infer_request({5, 6}, ++id), resp, err) ||
            resp.status != Status::kOk) {
          failures.fetch_add(1);
        }
        calls.fetch_add(1);
      }
    });
  }

  // Publish five fresh snapshots while traffic flows.
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    gcn::ModelConfig mc = mc_;
    mc.seed = 1000 + seq;
    store_->publish(std::make_shared<const ModelSnapshot>(
        seq, static_cast<int>(seq), gcn::GcnModel(mc)));
    std::this_thread::sleep_for(15ms);
  }
  stop.store(true);
  for (std::thread& th : clients) th.join();

  EXPECT_GT(calls.load(), 10u);
  EXPECT_EQ(failures.load(), 0u) << "hot swap must not fail any request";
  EXPECT_EQ(store_->swaps(), 5u);

  // A post-swap ping reports the newest snapshot.
  RetryingClient client = make_client();
  Request ping;
  ping.op = Op::kPing;
  ping.request_id = 1;
  Response resp;
  std::string err;
  ASSERT_TRUE(client.call(ping, resp, err)) << err;
  EXPECT_EQ(resp.snapshot_seq, 5u);
}

TEST_F(ServeServerTest, SurvivesInjectedWireFaults) {
  // Randomly perturb every socket path: short reads/writes force the
  // incremental decode + partial-flush paths, EAGAIN forces retries. The
  // retrying client must still get every answer, and nothing crashes.
  util::FaultInjector& f = util::FaultInjector::instance();
  f.set_seed(7);
  f.arm_probability("serve.sock.short_read", 0.3, util::FaultKind::kReport);
  f.arm_probability("serve.sock.short_write", 0.3, util::FaultKind::kReport);
  f.arm_probability("serve.sock.read_eagain", 0.1, util::FaultKind::kReport);
  f.arm_probability("serve.sock.write_eagain", 0.1, util::FaultKind::kReport);
  start_server(ServerOptions{});

  RetryingClient client = make_client(/*seed=*/3);
  for (std::uint64_t i = 0; i < 30; ++i) {
    Response resp;
    std::string err;
    ASSERT_TRUE(client.call(infer_request({1, 2, 3, 4}, i), resp, err))
        << "call " << i << ": " << err;
    ASSERT_EQ(resp.status, Status::kOk) << resp.message;
    ASSERT_EQ(resp.rows, 4u);
  }
  util::FaultInjector::instance().clear();
}

TEST_F(ServeServerTest, ConnectionResetMidExchangeIsAbsorbedByRetry) {
  util::FaultInjector& f = util::FaultInjector::instance();
  f.set_seed(11);
  f.arm_probability("serve.sock.read_reset", 0.05, util::FaultKind::kReport);
  start_server(ServerOptions{});

  RetryingClient client = make_client(/*seed=*/5);
  std::uint64_t ok = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    Response resp;
    std::string err;
    if (client.call(infer_request({9}, i), resp, err) &&
        resp.status == Status::kOk) {
      ++ok;
    }
  }
  util::FaultInjector::instance().clear();
  EXPECT_EQ(ok, 40u) << "reconnect+resend must hide injected resets";
  EXPECT_GT(client.stats().reconnects, 1u) << "resets did happen";
}

}  // namespace
}  // namespace gsgcn::serve
