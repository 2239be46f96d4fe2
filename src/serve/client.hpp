#pragma once
// Blocking client with retries, reconnects, and deterministic backoff.
//
// The failure model it absorbs (everything the robustness tests throw at
// the wire): connection refused while the server restarts, ECONNRESET /
// EOF mid-exchange after a crash, receive timeouts, and corrupt frames.
// Any of those triggers reconnect + resend with exponential backoff and
// seeded jitter (deterministic per client — load-generator runs
// reproduce). OVERLOADED replies also back off and retry: shedding is the
// server asking the client to slow down, and the client honoring that is
// what makes graceful degradation graceful end to end.
//
// Not thread-safe; a load generator runs one client per thread with
// decorrelated jitter streams (Xoshiro256::stream).

#include <cstdint>
#include <string>

#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "util/rng.hpp"

namespace gsgcn::serve {

struct ClientOptions {
  std::uint16_t port = 0;
  int max_attempts = 8;          // total tries per call (first + retries)
  double base_backoff_ms = 5.0;  // doubles per attempt...
  double max_backoff_ms = 500.0; // ...capped here, x U[0.5, 1) jitter
  double recv_timeout_ms = 5000.0;
  std::uint64_t seed = 1;        // jitter stream
};

struct ClientStats {
  std::uint64_t calls = 0;
  std::uint64_t retries = 0;     // attempts beyond the first
  std::uint64_t reconnects = 0;  // sockets re-established
  std::uint64_t io_errors = 0;   // send/recv/frame failures absorbed
  std::uint64_t overloaded = 0;  // OVERLOADED replies absorbed by retry
};

class RetryingClient {
 public:
  explicit RetryingClient(ClientOptions options);

  /// One request/response exchange. Returns true with the server's reply
  /// (which may still be an error status — kOverloaded if every attempt
  /// was shed, etc.); false with `err` set when the transport could not be
  /// made to work within max_attempts.
  bool call(const Request& req, Response& resp, std::string& err);

  const ClientStats& stats() const { return stats_; }
  bool connected() const { return fd_.valid(); }

 private:
  bool ensure_connected(std::string& err);
  /// One attempt on the current connection. False = transport-level
  /// failure (caller reconnects and retries).
  bool attempt(const Request& req, Response& resp, std::string& err);
  void backoff(int attempt_idx);

  ClientOptions opts_;
  Fd fd_;
  std::string inbuf_;
  util::Xoshiro256 rng_;
  ClientStats stats_;
};

}  // namespace gsgcn::serve
