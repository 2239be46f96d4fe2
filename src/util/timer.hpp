#pragma once
// Wall-clock timing. Phases of a training iteration are timed through
// obs::PhaseScope (obs/phase.hpp).

#include <chrono>

namespace gsgcn::util {

/// Monotonic wall timer. start() on construction; seconds()/ms() read the
/// elapsed time without stopping; restart() resets the origin.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ms() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gsgcn::util
