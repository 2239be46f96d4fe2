#pragma once
// Subgraph pool — the training scheduler of paper Algorithm 5.
//
// Sampling and GCN computation have no dependency across iterations (the
// training graph is fixed), so the scheduler keeps a pool { G_i } of
// pre-sampled subgraphs: p_inter sampler instances run in parallel
// (inter-subgraph parallelism), each of which parallelizes internally
// with AVX2 (intra-subgraph parallelism). The trainer pops one subgraph
// per weight update.
//
// Two operating modes share one FIFO queue:
//
//  - Synchronous (default): pop() on an empty queue produces a batch of
//    p_inter subgraphs inline — the consumer pays the full sampling
//    latency every p_inter iterations.
//  - Asynchronous (`PoolOptions::async`): a background producer thread
//    continuously refills the queue up to `capacity` while the trainer
//    consumes, so sampling overlaps with training and the consumer only
//    blocks when it genuinely outruns the producer. The producer claims
//    slot ranges under the queue mutex, samples outside it, and appends
//    whole batches in slot order; a stop request lets an in-flight batch
//    land (briefly exceeding capacity by at most one batch) so no claimed
//    slot is ever dropped. Sampler exceptions are captured on the
//    producer and rethrown from pop() once the queue drains.
//
// Determinism contract: the k-th subgraph ever popped is drawn from RNG
// stream (seed, k), where k is a global slot counter that advances with
// every sample produced — NOT from a per-instance stream. Combined with
// FIFO pop order, the popped sequence is a pure function of `seed`:
// identical for p_inter = 1, 2, 4, ..., identical between sync and async
// mode, regardless of OS scheduling. This is what makes sanitizer/debug/
// release and sync/async runs comparable bit-for-bit and is asserted by
// tests/test_pool.cpp.
//
// Stall accounting: the unavoidable first fill of an empty pool is a
// cold start (`pool.cold_start`), not a stall — call prefill() before a
// timed loop to take it off the critical path. `pool.stalls` counts only
// genuine starvation: a pop that found the queue empty after the pool
// had already been filled once.

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "graph/subgraph.hpp"
#include "sampling/sampler.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace gsgcn::sampling {

/// Builds the sampler for instance i (each parallel instance owns its own
/// sampler so there is no shared mutable state between them).
using SamplerFactory =
    std::function<std::unique_ptr<VertexSampler>(int instance)>;

struct PoolOptions {
  /// Number of concurrent sampler instances (paper's p_inter); also the
  /// batch size of every refill.
  int p_inter = 1;
  std::uint64_t seed = 1;
  /// Run a background producer thread (see header note).
  bool async = false;
  /// Queue bound for async mode: the producer sleeps while fewer than
  /// p_inter free slots remain. 0 → 2·p_inter; values below p_inter are
  /// raised to p_inter (a batch must fit).
  std::size_t capacity = 0;
};

class SubgraphPool {
 public:
  SubgraphPool(const graph::CsrGraph& g, SamplerFactory factory,
               PoolOptions options);

  /// Stops and joins the producer; subgraphs still queued are discarded.
  ~SubgraphPool();

  /// Pop the oldest pooled subgraph. Blocks on the producer in async
  /// mode; refills inline otherwise. Rethrows a producer-side sampler
  /// exception once the already-produced subgraphs have drained.
  graph::Subgraph pop() EXCLUDES(mu_);

  /// Synchronously produce one batch of p_inter subgraphs and append
  /// them. Invalid while the async producer is live (checked build
  /// assert): both sides would mutate the shared sampler instances.
  void refill() EXCLUDES(mu_);

  /// Warm the pool before a timed loop: ensures at least one batch is
  /// queued, tagging the fill as `pool.cold_start` rather than a stall.
  /// In async mode this waits for the producer's first batch.
  void prefill() EXCLUDES(mu_);

  /// Start the background producer (no-op unless constructed with
  /// `async`, idempotent). The async constructor starts it already; this
  /// restarts production after stop_async(). Lifecycle calls
  /// (start_async/stop_async/seek) may race freely with pop(); they are
  /// serialized against EACH OTHER by lifecycle_mu_.
  void start_async() EXCLUDES(lifecycle_mu_, mu_);

  /// Stop and join the producer. An in-flight batch is appended first,
  /// so the slot sequence has no holes; queued subgraphs stay poppable
  /// and later pops continue the sequence with inline refills. Called by
  /// the trainer at the end of train() and by the destructor.
  void stop_async() EXCLUDES(lifecycle_mu_, mu_);

  /// True while the producer thread is accepting work.
  bool async_running() const EXCLUDES(mu_);

  /// Original-graph vertex ids of the oldest queued subgraph (the one the
  /// next pop() returns), or empty when nothing is queued. This is the
  /// lookahead hook for the feature store's mmap prefetch: the trainer
  /// peeks the upcoming gather set and issues madvise hints while the
  /// current subgraph trains. Purely advisory — peeking never consumes.
  /// The out-parameter form copies into the caller's vector, so a reused
  /// one stops allocating once it has held the largest subgraph.
  void peek_next_orig_ids(std::vector<graph::Vid>& out) const EXCLUDES(mu_);
  std::vector<graph::Vid> peek_next_orig_ids() const EXCLUDES(mu_);

  std::size_t available() const EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }
  int p_inter() const { return static_cast<int>(samplers_.size()); }

  /// Number of subgraphs popped so far. Because pops are FIFO and slot k
  /// is drawn from RNG stream (seed, k), this single cursor IS the full
  /// sampler state: checkpointing it (and later seek()ing to it) replays
  /// the byte-identical subgraph sequence.
  std::uint64_t consumed() const EXCLUDES(mu_);

  /// Rewind/fast-forward the slot cursor to `slot`: stops the producer,
  /// discards queued-but-unpopped subgraphs (they are regenerated
  /// deterministically), clears any sticky producer error, and marks the
  /// pool cold so the next fill counts as a cold start. The caller
  /// restarts the pipeline with start_async()/prefill(). This is the
  /// checkpoint-restore and divergence-rollback primitive.
  void seek(std::uint64_t slot) EXCLUDES(lifecycle_mu_, mu_);

  /// Total wall time spent producing batches — the "Sampling" slice of
  /// the Figure-3D execution breakdown. In async mode this overlaps with
  /// training, so it is *not* consumer critical-path time (that is
  /// pop_wait_seconds()).
  double sampling_seconds() const EXCLUDES(mu_);
  /// Consumer time blocked inside pop(): cv waits in async mode, inline
  /// refills in sync mode. This is the sampler's true contribution to the
  /// training critical path.
  double pop_wait_seconds() const EXCLUDES(mu_);

  /// Pops that found the queue empty after the pool had been filled once
  /// (genuine starvation; excludes the cold start).
  std::uint64_t stalls() const EXCLUDES(mu_);
  /// Cold-start fills: first refill of an empty pool, incl. prefill().
  std::uint64_t cold_starts() const EXCLUDES(mu_);

  /// Reset all timing and stall accounting (queue and slot counter keep
  /// their state — the popped sequence is unaffected).
  void reset_accounting() EXCLUDES(mu_);

 private:
  /// Sample the batch for slots [slot_base, slot_base + p_inter) outside
  /// the queue lock; worker exceptions are collected and rethrown here.
  std::vector<graph::Subgraph> produce_batch(std::uint64_t slot_base)
      EXCLUDES(mu_);
  void producer_main() EXCLUDES(mu_);
  void push_batch_locked(std::vector<graph::Subgraph>&& batch) REQUIRES(mu_);

  const graph::CsrGraph& g_;
  // Sampler/inducer instances are mutated only by whoever produces a
  // batch; the producer_live_ handshake (asserted in refill()) guarantees
  // a single producer at a time, so they need no mutex of their own.
  std::vector<std::unique_ptr<VertexSampler>> samplers_;
  std::vector<std::unique_ptr<graph::Inducer>> inducers_;
  std::uint64_t seed_;
  bool async_;
  std::size_t capacity_;

  /// Serializes producer lifecycle transitions (start_async, stop_async,
  /// seek) against each other — two concurrent stop_async calls would
  /// otherwise both join() producer_. Always acquired before mu_; never
  /// held while producing, so pop()/refill() proceed untouched.
  mutable util::Mutex lifecycle_mu_ ACQUIRED_BEFORE(mu_);
  mutable util::Mutex mu_;
  util::CondVar not_empty_;  // producer → consumer
  util::CondVar space_;      // consumer → producer
  std::deque<graph::Subgraph> queue_ GUARDED_BY(mu_);
  /// Global sample counter; see header note.
  std::uint64_t next_slot_ GUARDED_BY(mu_) = 0;
  /// Subgraphs consumed; see consumed().
  std::uint64_t popped_ GUARDED_BY(mu_) = 0;
  /// True until the first batch lands in the queue.
  bool cold_ GUARDED_BY(mu_) = true;
  /// Producer shutdown request.
  bool stop_ GUARDED_BY(mu_) = false;
  /// Producer thread is producing.
  bool producer_live_ GUARDED_BY(mu_) = false;
  /// First producer-side exception (sticky).
  std::exception_ptr error_ GUARDED_BY(mu_);
  double sample_seconds_ GUARDED_BY(mu_) = 0.0;
  double pop_wait_seconds_ GUARDED_BY(mu_) = 0.0;
  std::uint64_t stall_count_ GUARDED_BY(mu_) = 0;
  std::uint64_t cold_start_count_ GUARDED_BY(mu_) = 0;
  /// The producer thread handle. Guarded by lifecycle_mu_, NOT mu_: a
  /// join() must not block other threads out of the queue lock, and the
  /// producer itself never touches the handle.
  std::thread producer_ GUARDED_BY(lifecycle_mu_);
};

}  // namespace gsgcn::sampling
