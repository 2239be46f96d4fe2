#include "sampling/pool.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gsgcn::sampling {

SubgraphPool::SubgraphPool(const graph::CsrGraph& g, SamplerFactory factory,
                           PoolOptions options)
    : g_(g),
      seed_(options.seed),
      async_(options.async) {
  if (options.p_inter <= 0) {
    throw std::invalid_argument("SubgraphPool: p_inter <= 0");
  }
  const auto p = static_cast<std::size_t>(options.p_inter);
  capacity_ = options.capacity == 0 ? 2 * p : std::max(options.capacity, p);
  samplers_.reserve(p);
  inducers_.reserve(p);
  for (int i = 0; i < options.p_inter; ++i) {
    samplers_.push_back(factory(i));
    inducers_.push_back(std::make_unique<graph::Inducer>(g_));
  }
  if (async_) start_async();
}

SubgraphPool::~SubgraphPool() { stop_async(); }

std::vector<graph::Subgraph> SubgraphPool::produce_batch(
    std::uint64_t slot_base) {
  GSGCN_TRACE_SPAN("pool/refill");
  // No work model: sampling is control-flow-bound, so only wall time and
  // counter ratios (IPC, miss rate) are meaningful for this phase. Not a
  // ledger scope: in sync mode a refill runs inside the trainer's pop.
  const obs::PerfRegion perf("sample");
  const util::Timer batch_timer;
  const int p = p_inter();
  std::vector<graph::Subgraph> batch(static_cast<std::size_t>(p));
  // An exception escaping an OpenMP region body would terminate the
  // process; collect the first one and rethrow it on this thread instead.
  // Batch-level fault site: fires on the producer thread in async mode,
  // on the consumer during inline refills — both rethrow through pop().
  util::fault_point("pool.produce");
  util::ExceptionCollector errors;
  util::parallel_for(p, p, [&](std::int64_t i) {
    errors.run([&] {
      // Per-slot fault site inside the worker body: exercises the
      // ExceptionCollector path an organic sampler failure would take.
      util::fault_point("pool.sample");
      // Pin for the duration of this sample only, as the paper prescribes,
      // so the sampler's Dashboard stays resident in that core's private
      // cache. The guard restores the thread's previous mask so pooled
      // worker threads are not left confined to one CPU after the batch
      // completes; pinning failures (restrictive containers) are ignored.
      util::ScopedAffinity affinity;
      (void)affinity.pin(static_cast<int>(i));
      // The RNG is derived from the global slot index, not the instance
      // index: slot k produces the same subgraph no matter which instance
      // (or p_inter / sync vs async configuration) executes it.
      auto rng = util::Xoshiro256::stream(
          seed_, slot_base + static_cast<std::uint64_t>(i));
      std::vector<graph::Vid> vertices;
      {
        GSGCN_TRACE_SPAN_ID("pool/sample",
                            slot_base + static_cast<std::uint64_t>(i));
        vertices = samplers_[static_cast<std::size_t>(i)]->sample_vertices(rng);
      }
      GSGCN_ASSERT(!vertices.empty(), "sampler returned an empty vertex set");
      // Induction stays single-threaded here: the parallelism budget is
      // already spent across instances (paper: p_intra is vector lanes).
      GSGCN_TRACE_SPAN_ID("pool/induce",
                          slot_base + static_cast<std::uint64_t>(i));
      batch[static_cast<std::size_t>(i)] =
          inducers_[static_cast<std::size_t>(i)]->induce(vertices, 1);
    });
  });
  errors.rethrow_if_any();
  const double elapsed = batch_timer.seconds();
  {
    util::MutexLock lock(mu_);
    sample_seconds_ += elapsed;
  }
  GSGCN_COUNTER_INC("pool.refills");
  GSGCN_HISTOGRAM_OBSERVE("pool.refill_seconds", elapsed, 0.001, 0.005, 0.02,
                          0.1, 0.5, 2.0);
  return batch;
}

void SubgraphPool::push_batch_locked(std::vector<graph::Subgraph>&& batch) {
  for (graph::Subgraph& s : batch) queue_.push_back(std::move(s));
  cold_ = false;
  GSGCN_GAUGE_SET("pool.occupancy", queue_.size());
  GSGCN_TRACE_COUNTER("pool/occupancy", queue_.size());
  not_empty_.notify_all();
}

void SubgraphPool::refill() {
  std::uint64_t slot_base;
  {
    util::MutexLock lock(mu_);
    GSGCN_ASSERT(!producer_live_,
                 "refill() while the async producer is live would race on "
                 "the sampler instances");
    slot_base = next_slot_;
    next_slot_ += static_cast<std::uint64_t>(p_inter());
  }
  std::vector<graph::Subgraph> batch = produce_batch(slot_base);
  util::MutexLock lock(mu_);
  push_batch_locked(std::move(batch));
}

void SubgraphPool::producer_main() {
  const auto p = static_cast<std::uint64_t>(p_inter());
  for (;;) {
    std::uint64_t slot_base;
    {
      util::MutexLock lock(mu_);
      space_.wait(mu_, [&] {
        mu_.AssertHeld();  // wait predicates run with the lock held
        return stop_ ||
               queue_.size() + static_cast<std::size_t>(p) <= capacity_;
      });
      if (stop_) {
        producer_live_ = false;
        not_empty_.notify_all();
        return;
      }
      slot_base = next_slot_;
      next_slot_ += p;
    }
    std::vector<graph::Subgraph> batch;
    try {
      batch = produce_batch(slot_base);
    } catch (...) {
      util::MutexLock lock(mu_);
      if (!error_) error_ = std::current_exception();
      producer_live_ = false;
      not_empty_.notify_all();
      return;
    }
    util::MutexLock lock(mu_);
    // Push even when a stop raced in: the slots were already claimed, and
    // dropping them would put a hole in the deterministic sequence. The
    // queue may briefly exceed capacity by at most one batch.
    push_batch_locked(std::move(batch));
    if (stop_) {
      producer_live_ = false;
      not_empty_.notify_all();
      return;
    }
  }
}

void SubgraphPool::start_async() {
  if (!async_) return;
  util::MutexLock lifecycle(lifecycle_mu_);
  {
    util::MutexLock lock(mu_);
    if (producer_live_) return;
  }
  if (producer_.joinable()) {
    producer_.join();  // reap a previously stopped producer
  }
  util::MutexLock lock(mu_);
  stop_ = false;
  producer_live_ = true;
  producer_ = std::thread([this] { producer_main(); });
}

void SubgraphPool::stop_async() {
  util::MutexLock lifecycle(lifecycle_mu_);
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  space_.notify_all();
  // Join outside mu_ (the producer needs it to finish) but under
  // lifecycle_mu_, so concurrent stop_async/start_async calls cannot both
  // operate on the handle.
  if (producer_.joinable()) producer_.join();
  util::MutexLock lock(mu_);
  producer_live_ = false;
}

bool SubgraphPool::async_running() const {
  util::MutexLock lock(mu_);
  return producer_live_;
}

void SubgraphPool::prefill() {
  util::MutexLock lock(mu_);
  if (!queue_.empty()) return;
  ++cold_start_count_;
  GSGCN_COUNTER_INC("pool.cold_start");
  if (producer_live_) {
    GSGCN_TRACE_SPAN("pool/prefill_wait");
    not_empty_.wait(mu_, [&] {
      mu_.AssertHeld();  // wait predicates run with the lock held
      return !queue_.empty() || error_ || !producer_live_;
    });
  }
  if (queue_.empty()) {
    if (error_) std::rethrow_exception(error_);
    const std::uint64_t slot_base = next_slot_;
    next_slot_ += static_cast<std::uint64_t>(p_inter());
    lock.Unlock();
    std::vector<graph::Subgraph> batch = produce_batch(slot_base);
    lock.Lock();
    push_batch_locked(std::move(batch));
  }
}

graph::Subgraph SubgraphPool::pop() {
  util::MutexLock lock(mu_);
  if (queue_.empty()) {
    // Classify the wait: the first-ever fill is a cold start (the pool
    // could not have kept up with anything yet); afterwards an empty
    // queue means the consumer genuinely outran the producer — the stall
    // the async pipeline exists to hide.
    if (cold_) {
      ++cold_start_count_;
      GSGCN_COUNTER_INC("pool.cold_start");
    } else {
      ++stall_count_;
      GSGCN_COUNTER_INC("pool.stalls");
    }
    const util::Timer wait_timer;
    if (producer_live_) {
      GSGCN_TRACE_SPAN("pool/pop_wait");
      not_empty_.wait(mu_, [&] {
        mu_.AssertHeld();  // wait predicates run with the lock held
        return !queue_.empty() || error_ || !producer_live_;
      });
    }
    if (queue_.empty()) {
      // No producer to wait on (sync mode, stopped, or failed): rethrow a
      // producer error once its surviving output has drained, otherwise
      // continue the slot sequence with an inline refill.
      if (error_) std::rethrow_exception(error_);
      const std::uint64_t slot_base = next_slot_;
      next_slot_ += static_cast<std::uint64_t>(p_inter());
      lock.Unlock();
      std::vector<graph::Subgraph> batch = produce_batch(slot_base);
      lock.Lock();
      push_batch_locked(std::move(batch));
    }
    pop_wait_seconds_ += wait_timer.seconds();
  }
  GSGCN_ASSERT(!queue_.empty(), "refill produced no subgraphs");
  graph::Subgraph out = std::move(queue_.front());
  queue_.pop_front();
  ++popped_;
  GSGCN_GAUGE_SET("pool.occupancy", queue_.size());
  GSGCN_TRACE_COUNTER("pool/occupancy", queue_.size());
  space_.notify_one();
  return out;
}

std::size_t SubgraphPool::available() const {
  util::MutexLock lock(mu_);
  return queue_.size();
}

std::vector<graph::Vid> SubgraphPool::peek_next_orig_ids() const {
  util::MutexLock lock(mu_);
  if (queue_.empty()) return {};
  return queue_.front().orig_ids;
}

std::uint64_t SubgraphPool::consumed() const {
  util::MutexLock lock(mu_);
  return popped_;
}

void SubgraphPool::seek(std::uint64_t slot) {
  stop_async();  // joins the producer; an in-flight batch lands first
  util::MutexLock lock(mu_);
  queue_.clear();
  next_slot_ = slot;
  popped_ = slot;
  error_ = nullptr;
  cold_ = true;  // the next fill is a warmup, not a starvation stall
  GSGCN_GAUGE_SET("pool.occupancy", queue_.size());
}

double SubgraphPool::sampling_seconds() const {
  util::MutexLock lock(mu_);
  return sample_seconds_;
}

double SubgraphPool::pop_wait_seconds() const {
  util::MutexLock lock(mu_);
  return pop_wait_seconds_;
}

std::uint64_t SubgraphPool::stalls() const {
  util::MutexLock lock(mu_);
  return stall_count_;
}

std::uint64_t SubgraphPool::cold_starts() const {
  util::MutexLock lock(mu_);
  return cold_start_count_;
}

void SubgraphPool::reset_accounting() {
  util::MutexLock lock(mu_);
  sample_seconds_ = 0.0;
  pop_wait_seconds_ = 0.0;
  stall_count_ = 0;
  cold_start_count_ = 0;
}

}  // namespace gsgcn::sampling
