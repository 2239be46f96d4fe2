#pragma once
// gsgcn::obs phase scope — the one way to time a phase of a training
// iteration.
//
// PhaseScope(op, dir) names one (op, direction) pair of the iteration:
//
//   pop          SubgraphPool::pop (sampler wait, and inline sampling in
//                sync mode)
//   gather       batch feature + label rows
//   spmm         feature propagation (Section V-B)
//   gemm         weight application (Section V-A)
//   elementwise  dropout, ReLU mask, bias, gradient adds
//   loss         loss + its gradient, and the divergence guard's scan
//   update       the Adam step
//
// Every scope, in every build, adds its wall time and one call to the
// calling thread's Ledger: a fixed-size thread_local table, so the hot
// path takes no lock, makes no shared write and allocates nothing. Two
// sinks are fed from the same scope and stay off until enabled at run
// time: the tracer records a Chrome span "<op>/<direction>" whose args.v
// is the layer id, and the PMU profiler folds a PerfRegion under the op's
// name with the scope's modeled work. Off, each costs one atomic load.
//
// Ledger scopes do not nest (asserted in checked builds), so every
// ledger second belongs to exactly one op and "wall time − ledger" is the
// unattributed remainder. Coarser intervals (epoch, iteration) and
// kernel-internal detail (gemm/nn, featprop/forward, pool/refill) are
// spans only.

#include <array>
#include <cstdint>
#include <string>

#include "obs/perf.hpp"
#include "obs/roofline.hpp"

namespace gsgcn::obs {

enum class Op : std::uint8_t {
  kPop = 0,
  kGather,
  kSpmm,
  kGemm,
  kElementwise,
  kLoss,
  kUpdate,
};
inline constexpr int kOpCount = 7;

enum class Dir : std::uint8_t { kForward = 0, kBackward };
inline constexpr int kDirCount = 2;

/// Stable lowercase name ("pop", "gather", "spmm", ...): the PMU phase
/// name and the JSON key of the op.
const char* op_name(Op op);

/// Accumulated wall time and scope count per (op, direction).
struct Ledger {
  std::array<std::array<double, kDirCount>, kOpCount> seconds{};
  std::array<std::array<std::uint64_t, kDirCount>, kOpCount> calls{};

  double at(Op op, Dir dir) const {
    return seconds[static_cast<int>(op)][static_cast<int>(dir)];
  }
  std::uint64_t calls_at(Op op, Dir dir) const {
    return calls[static_cast<int>(op)][static_cast<int>(dir)];
  }
  /// Both directions of one op.
  double op_seconds(Op op) const {
    return at(op, Dir::kForward) + at(op, Dir::kBackward);
  }
  double total_seconds() const;

  /// Entry-wise difference: the ledger of the interval since `earlier`.
  Ledger operator-(const Ledger& earlier) const;
  Ledger& operator+=(const Ledger& other);

  /// {"<op>":{"forward":s,"backward":s,"calls":n},...} over every op.
  std::string to_json() const;
};

/// Copy of the calling thread's ledger.
Ledger thread_ledger();

/// RAII phase scope; see the header note. `layer` (-1 = none) becomes the
/// span's args.v; `work` is the modeled work folded into the PMU phase.
class PhaseScope {
 public:
  explicit PhaseScope(Op op, Dir dir = Dir::kForward, std::int64_t layer = -1,
                      Work work = {});
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Op op_;
  Dir dir_;
  bool traced_;
  std::int64_t layer_;
  std::uint64_t t0_ns_;
  PerfRegion perf_;
};

}  // namespace gsgcn::obs
