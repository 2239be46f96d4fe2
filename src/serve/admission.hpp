#pragma once
// Bounded admission queue with deadlines, batching, and load shedding —
// the overload-control core of the serving engine.
//
// Design rules (cf. the WeChat overload-control line of work: shed early,
// shed explicitly, bound everything):
//
//   1. The queue is BOUNDED. push() on a full queue fails immediately
//      with kQueueFull — the caller answers OVERLOADED instead of letting
//      latency grow without bound. The IO thread additionally pauses
//      accept() above a high watermark (see server.cpp), so backpressure
//      reaches the kernel listen queue, not just this buffer.
//
//   2. Every ticket carries a deadline. pop_batch() sheds tickets whose
//      deadline has already passed at dequeue time — work that cannot
//      possibly be answered in time is the cheapest work to drop, and
//      dropping it first is what keeps goodput flat past saturation.
//
//   3. Batching is a window, not a wait-for-full: the first ticket opens
//      a batch window (batch_window from ITS arrival); the popper
//      collects whatever arrives inside the window up to max_batch, then
//      runs. Under light load the window is the only added latency;
//      under heavy load batches fill instantly and the window never
//      matters.
//
//   4. close() is drain, not abandon: pushes fail with kClosed, but
//      workers keep popping until the queue is empty so every admitted
//      request gets an answer — the SIGTERM path's guarantee.

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "serve/protocol.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace gsgcn::serve {

using SteadyTime = std::chrono::steady_clock::time_point;

/// One admitted request, tagged with its origin connection.
struct Ticket {
  std::uint64_t conn_id = 0;
  Request request;
  SteadyTime enqueued{};
  SteadyTime deadline{};
  bool has_deadline = false;
};

enum class Admit : std::uint8_t {
  kAdmitted = 0,
  kQueueFull = 1,  // shed now; answer OVERLOADED
  kClosed = 2,     // draining; answer SHUTTING_DOWN
};

class AdmissionQueue {
 public:
  /// `capacity` > 0: maximum queued tickets (not counting in-flight
  /// batches already popped by workers).
  explicit AdmissionQueue(std::size_t capacity);

  Admit push(Ticket ticket) EXCLUDES(mu_);

  /// Block for the next batch. On return, `batch` holds up to max_batch
  /// live tickets and `expired` the tickets whose deadline passed while
  /// queued (both cleared first; either may come back empty). Returns
  /// false only when the queue is closed AND fully drained — the worker
  /// exit condition.
  bool pop_batch(std::size_t max_batch, std::chrono::nanoseconds window,
                 std::vector<Ticket>& batch, std::vector<Ticket>& expired)
      EXCLUDES(mu_);

  /// Stop admitting; wake all poppers. Already-queued tickets still drain.
  void close() EXCLUDES(mu_);

  std::size_t depth() const EXCLUDES(mu_);
  bool closed() const EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }

  /// Lifetime shed/admit counters (monotone).
  std::uint64_t admitted_total() const EXCLUDES(mu_);
  std::uint64_t rejected_full_total() const EXCLUDES(mu_);

 private:
  const std::size_t capacity_;
  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Ticket> q_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  std::uint64_t admitted_ GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_full_ GUARDED_BY(mu_) = 0;
};

}  // namespace gsgcn::serve
