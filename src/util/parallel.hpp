#pragma once
// The library's single parallelism choke point.
//
// All data parallelism goes through parallel_for / parallel_for_ranges /
// parallel_for_dynamic, which are short loops inside parallel_region —
// the one place that forms a team. Two interchangeable backends
// implement that region:
//
//  - OpenMP (default): `#pragma omp parallel num_threads(p)`.
//  - Plain std::thread teams (GSGCN_THREAD_BACKEND, selected by
//    -DGSGCN_SANITIZE=thread): one fresh thread per team member per
//    region. GCC's libgomp synchronizes its thread pool with futexes that
//    ThreadSanitizer cannot observe, so under TSan every pooled fork/join
//    edge looks like a data race (hundreds of false positives on correct
//    code, and no suppression can restore the missing happens-before
//    edges without also masking real races). Fresh pthread_create/join
//    pairs ARE intercepted by TSan, which restores exact fork/join
//    ordering while leaving every intra-region access pattern — the thing
//    we actually want race-checked — unchanged. Thread startup cost makes
//    this backend slower; it exists for correctness runs, not production.
//
// Team size: every region asks for the full thread budget, whatever the
// trip count; members past the last chunk return at once. Asking for a
// smaller team when n < threads would make libgomp end its surplus pool
// threads and create new ones at the next full-size region, so a small
// loop between two large ones would cost a thread exit and a
// pthread_create each time.
//
// Chunking note: the static split is contiguous blocks (split_range) over
// the team OpenMP actually formed, not the team asked for: a nested region
// gets one member, which then runs every chunk. Results never depend on
// which thread runs which chunk, only on chunk-disjointness — which is
// exactly what TSan verifies.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#ifdef GSGCN_THREAD_BACKEND
#include <thread>
#include <vector>
#else
#include <omp.h>
#endif

namespace gsgcn::util {

/// Max threads OpenMP would give a parallel region right now.
int max_threads();

/// Hardware concurrency as OpenMP sees it (omp_get_num_procs).
int num_procs();

/// threads > 0 ? threads : max_threads() — the convention every public
/// `int threads` parameter in the library follows.
int resolve_threads(int threads);

/// Pin the calling thread to logical CPU `cpu % num_procs()`. Returns
/// false when unsupported or denied (containerized/cgroup setups); never
/// throws — pinning is an optimization, not a correctness requirement.
/// The paper binds one sampler to one core so its Dashboard stays in that
/// core's private cache.
bool pin_current_thread_to_cpu(int cpu);

/// RAII affinity guard: captures the calling thread's CPU mask, then
/// restores it on destruction if pin() was called. Parallel regions that
/// pin worker threads MUST use this — OpenMP reuses its workers across
/// regions, so a leaked single-CPU mask would serialize every subsequent
/// parallel region on that worker (the sampler pool's original
/// pinned-startup bug).
class ScopedAffinity {
 public:
  ScopedAffinity();
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

  /// pin_current_thread_to_cpu + arm the destructor's restore.
  bool pin(int cpu);

 private:
  bool saved_ = false;
  bool pinned_ = false;
#ifdef __linux__
  unsigned char mask_[128];  // large enough for cpu_set_t
#endif
};

/// Data-cache sizes of cpu0 in bytes, read from sysfs at first call
/// (0 = not reported).
struct CacheSizes {
  std::size_t l1d = 0;
  std::size_t l2 = 0;  // unified or data
  std::size_t l3 = 0;
};
const CacheSizes& cache_sizes();

/// Per-core private (L2) data-cache size in bytes, read from sysfs at
/// first call; falls back to the paper's 256 KiB when undetectable. The
/// feature-partitioned propagation sizes Q against this (Theorem 2's
/// S_cache).
std::size_t private_cache_bytes();

/// Static range split: chunk `i` of `p` over [0, n) → [begin, end).
/// Distributes the remainder over the first (n % p) chunks.
struct Range {
  std::int64_t begin;
  std::int64_t end;
};
Range split_range(std::int64_t n, int p, int i);

/// Collects the first exception thrown inside a parallel team so it can
/// be rethrown on the launching thread. An exception escaping an OpenMP
/// region body terminates the process (and escaping a plain std::thread
/// calls std::terminate), so team members wrap their body in run() and
/// the launcher calls rethrow_if_any() after the join:
///
///   ExceptionCollector errors;
///   parallel_for(n, p, [&](std::int64_t i) { errors.run([&] { work(i); }); });
///   errors.rethrow_if_any();
class ExceptionCollector {
 public:
  template <class F>
  void run(F&& body) noexcept EXCLUDES(mu_) {
    try {
      body();
    } catch (...) {
      MutexLock lock(mu_);
      if (!first_) first_ = std::current_exception();
    }
  }

  bool failed() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return static_cast<bool>(first_);
  }

  /// Rethrow the first captured exception, if any (call after the join).
  void rethrow_if_any() EXCLUDES(mu_) {
    std::exception_ptr e;
    {
      MutexLock lock(mu_);
      e = first_;
    }
    if (e) std::rethrow_exception(e);
  }

 private:
  mutable Mutex mu_;
  std::exception_ptr first_ GUARDED_BY(mu_);
};

/// SPMD region: body(tid, num_threads) runs once on each member of a
/// team of resolve_threads(threads). num_threads is the team actually
/// formed, which is 1 inside another region.
template <class F>
void parallel_region(int threads, F&& body) {
  const int p = resolve_threads(threads);
  if (p <= 1) {  // skip fork/join entirely — a 1-thread region is overhead
    body(0, 1);
    return;
  }
#ifdef GSGCN_THREAD_BACKEND
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(p) - 1);
  for (int t = 1; t < p; ++t) {
    team.emplace_back([&body, t, p] { body(t, p); });
  }
  body(0, p);
  for (auto& th : team) th.join();
#else
#pragma omp parallel num_threads(p)
  { body(omp_get_thread_num(), omp_get_num_threads()); }
#endif
}

/// Statically-scheduled loop over contiguous ranges: body(begin, end)
/// runs once per non-empty split_range chunk, min(n, team) chunks in all.
/// Use instead of parallel_for when the body is a dense inner loop the
/// compiler should vectorize — handing it the whole [begin, end) range
/// keeps the SIMD loop intact instead of re-entering a per-index
/// callback. parallel_for is this helper with a per-index loop, so any
/// computation that is chunk-order-independent gives bit-identical
/// results under either helper and any thread count.
template <class F>
void parallel_for_ranges(std::int64_t n, int threads, F&& body) {
  if (n <= 0) return;
  const int p = resolve_threads(threads);
  if (n == 1 || p <= 1) {
    body(std::int64_t{0}, n);
    return;
  }
  parallel_region(p, [&body, n](int tid, int nt) {
    const int chunks = static_cast<int>(std::min<std::int64_t>(n, nt));
    if (tid >= chunks) return;
    const Range r = split_range(n, chunks, tid);
    body(r.begin, r.end);
  });
}

/// Statically-scheduled loop: body(i) for i in [0, n), contiguous chunks.
template <class F>
void parallel_for(std::int64_t n, int threads, F&& body) {
  parallel_for_ranges(n, threads, [&body](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) body(i);
  });
}

/// Dynamically-scheduled loop for irregular per-iteration cost: body(i)
/// for i in [0, n), iterations handed out one at a time from a shared
/// counter.
template <class F>
void parallel_for_dynamic(std::int64_t n, int threads, F&& body) {
  if (n <= 0) return;
  const int p = resolve_threads(threads);
  if (n == 1 || p <= 1) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::int64_t> next{0};
  parallel_region(p, [&body, &next, n](int, int) {
    for (std::int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  });
}

}  // namespace gsgcn::util
