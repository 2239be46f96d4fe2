#include "obs/phase.hpp"

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/json_writer.hpp"

namespace gsgcn::obs {

namespace {

thread_local Ledger t_ledger;
#if GSGCN_CHECKS_ENABLED
thread_local bool t_open = false;
#endif

// Span names, [op][dir]: literals, as the tracer stores the pointer.
constexpr const char* kSpanNames[kOpCount][kDirCount] = {
    {"pop/forward", "pop/backward"},
    {"gather/forward", "gather/backward"},
    {"spmm/forward", "spmm/backward"},
    {"gemm/forward", "gemm/backward"},
    {"elementwise/forward", "elementwise/backward"},
    {"loss/forward", "loss/backward"},
    {"update/forward", "update/backward"},
};

}  // namespace

const char* op_name(Op op) {
  // Exhaustive: -Wswitch flags any Op added without a name here.
  switch (op) {
    case Op::kPop: return "pop";
    case Op::kGather: return "gather";
    case Op::kSpmm: return "spmm";
    case Op::kGemm: return "gemm";
    case Op::kElementwise: return "elementwise";
    case Op::kLoss: return "loss";
    case Op::kUpdate: return "update";
  }
  return "?";
}

double Ledger::total_seconds() const {
  double total = 0.0;
  for (const auto& by_dir : seconds) {
    for (const double s : by_dir) total += s;
  }
  return total;
}

Ledger Ledger::operator-(const Ledger& earlier) const {
  Ledger d;
  for (int o = 0; o < kOpCount; ++o) {
    for (int r = 0; r < kDirCount; ++r) {
      d.seconds[o][r] = seconds[o][r] - earlier.seconds[o][r];
      d.calls[o][r] = calls[o][r] - earlier.calls[o][r];
    }
  }
  return d;
}

Ledger& Ledger::operator+=(const Ledger& other) {
  for (int o = 0; o < kOpCount; ++o) {
    for (int r = 0; r < kDirCount; ++r) {
      seconds[o][r] += other.seconds[o][r];
      calls[o][r] += other.calls[o][r];
    }
  }
  return *this;
}

std::string Ledger::to_json() const {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  for (int o = 0; o < kOpCount; ++o) {
    w.key(op_name(static_cast<Op>(o))).begin_object();
    w.key("forward").value(seconds[o][0]);
    w.key("backward").value(seconds[o][1]);
    w.key("calls").value(static_cast<std::int64_t>(calls[o][0] + calls[o][1]));
    w.end_object();
  }
  w.end_object();
  return out;
}

Ledger thread_ledger() { return t_ledger; }

PhaseScope::PhaseScope(Op op, Dir dir, std::int64_t layer, Work work)
    : op_(op),
      dir_(dir),
      traced_(Tracer::instance().active()),
      layer_(layer),
      t0_ns_(Tracer::instance().now_ns()),
      perf_(op_name(op), work.flops, work.bytes) {
#if GSGCN_CHECKS_ENABLED
  GSGCN_ASSERT(!t_open, "PhaseScope: ledger scopes do not nest");
  t_open = true;
#endif
}

PhaseScope::~PhaseScope() {
  Tracer& tracer = Tracer::instance();
  const std::uint64_t t1_ns = tracer.now_ns();
  const int o = static_cast<int>(op_);
  const int r = static_cast<int>(dir_);
  t_ledger.seconds[o][r] += static_cast<double>(t1_ns - t0_ns_) * 1e-9;
  t_ledger.calls[o][r] += 1;
  // Stopped mid-scope: drop the partial span, like obs::Span.
  if (traced_ && tracer.active()) {
    tracer.record(kSpanNames[o][r], t0_ns_, t1_ns, layer_, layer_ >= 0);
  }
#if GSGCN_CHECKS_ENABLED
  t_open = false;
#endif
}

}  // namespace gsgcn::obs
