// SubgraphPool (Algorithm 5 scheduler) tests: refill semantics, subgraph
// validity, reproducibility across p_inter, timing accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "sampling/frontier_dashboard.hpp"
#include "sampling/pool.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace gsgcn::sampling {
namespace {

using graph::CsrGraph;
using graph::Vid;

SamplerFactory dashboard_factory(const CsrGraph& g) {
  return [&g](int /*instance*/) -> std::unique_ptr<VertexSampler> {
    FrontierParams p;
    p.frontier_size = 15;
    p.budget = 60;
    return std::make_unique<DashboardFrontierSampler>(g, p);
  };
}

PoolOptions sync_options(int p_inter, std::uint64_t seed) {
  PoolOptions o;
  o.p_inter = p_inter;
  o.seed = seed;
  return o;
}

TEST(SubgraphPool, PopRefillsWhenEmpty) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), sync_options(3, 42));
  EXPECT_EQ(pool.available(), 0u);
  const auto sub = pool.pop();
  EXPECT_GT(sub.num_vertices(), 0u);
  EXPECT_EQ(pool.available(), 2u);  // p_inter − 1 left
  (void)pool.pop();
  (void)pool.pop();
  EXPECT_EQ(pool.available(), 0u);
  (void)pool.pop();  // triggers second refill
  EXPECT_EQ(pool.available(), 2u);
}

TEST(SubgraphPool, RejectsNonPositivePInter) {
  const CsrGraph g = gsgcn::testing::small_er();
  EXPECT_THROW(SubgraphPool(g, dashboard_factory(g), sync_options(0, 1)),
               std::invalid_argument);
}

TEST(SubgraphPool, SubgraphsAreValidInducedGraphs) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), sync_options(4, 7));
  for (int i = 0; i < 8; ++i) {
    const auto sub = pool.pop();
    EXPECT_TRUE(sub.graph.validate().empty()) << sub.graph.validate();
    EXPECT_EQ(sub.orig_ids.size(), sub.num_vertices());
    std::set<Vid> distinct(sub.orig_ids.begin(), sub.orig_ids.end());
    EXPECT_EQ(distinct.size(), sub.orig_ids.size());
    for (const Vid v : sub.orig_ids) EXPECT_LT(v, g.num_vertices());
  }
}

TEST(SubgraphPool, DistinctInstancesProduceDistinctSubgraphs) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), sync_options(4, 11));
  const auto a = pool.pop();
  const auto b = pool.pop();
  EXPECT_NE(a.orig_ids, b.orig_ids);
}

TEST(SubgraphPool, ReproducibleForFixedSeed) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool p1(g, dashboard_factory(g), sync_options(3, 123));
  SubgraphPool p2(g, dashboard_factory(g), sync_options(3, 123));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(p1.pop().orig_ids, p2.pop().orig_ids);
  }
}

TEST(SubgraphPool, DifferentSeedsDiffer) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool p1(g, dashboard_factory(g), sync_options(2, 1));
  SubgraphPool p2(g, dashboard_factory(g), sync_options(2, 2));
  EXPECT_NE(p1.pop().orig_ids, p2.pop().orig_ids);
}

TEST(SubgraphPool, PoppedSequenceIdenticalAcrossPInter) {
  // The determinism contract (pool.hpp): the k-th popped subgraph is
  // drawn from RNG stream (seed, k) where k is a global slot counter, and
  // pops are FIFO — so the popped *sequence* is a pure function of the
  // seed, independent of how many sampler instances run concurrently.
  const CsrGraph g = gsgcn::testing::small_er();
  constexpr std::uint64_t kSeed = 2024;
  constexpr int kPops = 8;  // spans two refills for every p_inter below

  std::vector<std::vector<Vid>> reference;
  {
    SubgraphPool pool(g, dashboard_factory(g), sync_options(1, kSeed));
    for (int i = 0; i < kPops; ++i) reference.push_back(pool.pop().orig_ids);
  }
  for (const int p_inter : {2, 4}) {
    SubgraphPool pool(g, dashboard_factory(g), sync_options(p_inter, kSeed));
    for (int i = 0; i < kPops; ++i) {
      EXPECT_EQ(pool.pop().orig_ids, reference[static_cast<std::size_t>(i)])
          << "pop " << i << " diverged at p_inter=" << p_inter;
    }
  }
}

TEST(SubgraphPool, SamplingTimerAccumulates) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), sync_options(2, 5));
  (void)pool.pop();
  EXPECT_GT(pool.sampling_seconds(), 0.0);
  EXPECT_GT(pool.pop_wait_seconds(), 0.0);  // the inline refill is a wait
  const double t1 = pool.sampling_seconds();
  (void)pool.pop();  // served from queue: no extra sampling time
  EXPECT_EQ(pool.sampling_seconds(), t1);
  pool.reset_accounting();
  EXPECT_EQ(pool.sampling_seconds(), 0.0);
  EXPECT_EQ(pool.pop_wait_seconds(), 0.0);
}

TEST(SubgraphPool, FirstFillIsColdStartNotStall) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), sync_options(2, 5));
  EXPECT_EQ(pool.cold_starts(), 0u);
  (void)pool.pop();  // first fill of an empty pool: cold start
  EXPECT_EQ(pool.cold_starts(), 1u);
  EXPECT_EQ(pool.stalls(), 0u);
  (void)pool.pop();  // served from queue
  EXPECT_EQ(pool.stalls(), 0u);
  (void)pool.pop();  // queue dry again: genuine starvation
  EXPECT_EQ(pool.stalls(), 1u);
  EXPECT_EQ(pool.cold_starts(), 1u);
}

TEST(SubgraphPool, PrefillAbsorbsTheColdStart) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), sync_options(3, 5));
  pool.prefill();
  EXPECT_EQ(pool.available(), 3u);
  EXPECT_EQ(pool.cold_starts(), 1u);
  pool.prefill();  // idempotent while stocked
  EXPECT_EQ(pool.cold_starts(), 1u);
  for (int i = 0; i < 3; ++i) (void)pool.pop();
  EXPECT_EQ(pool.stalls(), 0u);  // every pop was served from the queue
}

PoolOptions async_options(int p_inter, std::uint64_t seed,
                          std::size_t capacity = 0) {
  PoolOptions o = sync_options(p_inter, seed);
  o.async = true;
  o.capacity = capacity;
  return o;
}

TEST(SubgraphPoolAsync, MatchesSyncSequenceByteForByte) {
  // The determinism contract extends across modes: slot-derived RNG
  // streams plus FIFO pops mean the async pipeline must yield exactly
  // the sequence a synchronous pool yields, for every p_inter and
  // capacity configuration.
  const CsrGraph g = gsgcn::testing::small_er();
  constexpr std::uint64_t kSeed = 99;
  constexpr int kPops = 12;

  std::vector<std::vector<Vid>> reference;
  {
    SubgraphPool pool(g, dashboard_factory(g), sync_options(1, kSeed));
    for (int i = 0; i < kPops; ++i) reference.push_back(pool.pop().orig_ids);
  }
  for (const int p_inter : {1, 2, 4}) {
    for (const std::size_t capacity :
         {std::size_t{0}, static_cast<std::size_t>(p_inter),
          static_cast<std::size_t>(4 * p_inter)}) {
      SubgraphPool pool(g, dashboard_factory(g),
                        async_options(p_inter, kSeed, capacity));
      for (int i = 0; i < kPops; ++i) {
        EXPECT_EQ(pool.pop().orig_ids, reference[static_cast<std::size_t>(i)])
            << "pop " << i << " diverged at p_inter=" << p_inter
            << " capacity=" << capacity;
      }
    }
  }
}

TEST(SubgraphPoolAsync, CapacityIsRespected) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), async_options(2, 7, 4));
  EXPECT_EQ(pool.capacity(), 4u);
  pool.prefill();
  for (int i = 0; i < 32; ++i) {
    // The producer only launches a batch while size + p_inter <= capacity,
    // so the queue never exceeds the bound (the pop below happens-after
    // any push that could have filled it).
    EXPECT_LE(pool.available(), 4u);
    (void)pool.pop();
  }
}

TEST(SubgraphPoolAsync, ProducerConsumerStress) {
  // Tight loop with a small capacity so producer and consumer contend on
  // the queue constantly; runs under the TSan ctest label (concurrency).
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), async_options(4, 31, 4));
  for (int i = 0; i < 64; ++i) {
    const auto sub = pool.pop();
    EXPECT_GT(sub.num_vertices(), 0u);
    EXPECT_TRUE(sub.graph.validate().empty()) << sub.graph.validate();
  }
  EXPECT_GE(pool.sampling_seconds(), 0.0);
}

TEST(SubgraphPoolAsync, ShutdownWhileFull) {
  // Destroying a pool whose producer is parked on a full queue must not
  // hang or leak the thread; same for immediate destruction mid-batch.
  const CsrGraph g = gsgcn::testing::small_er();
  {
    SubgraphPool pool(g, dashboard_factory(g), async_options(2, 13, 2));
    pool.prefill();  // queue full; producer blocked on space
  }
  {
    SubgraphPool pool(g, dashboard_factory(g), async_options(4, 13));
    // destroyed immediately, likely mid-batch
  }
}

TEST(SubgraphPoolAsync, StopDrainsAndSyncPopsContinueTheSequence) {
  const CsrGraph g = gsgcn::testing::small_er();
  constexpr std::uint64_t kSeed = 321;
  constexpr int kPops = 8;
  std::vector<std::vector<Vid>> reference;
  {
    SubgraphPool pool(g, dashboard_factory(g), sync_options(2, kSeed));
    for (int i = 0; i < kPops; ++i) reference.push_back(pool.pop().orig_ids);
  }
  SubgraphPool pool(g, dashboard_factory(g), async_options(2, kSeed));
  for (int i = 0; i < kPops / 2; ++i) {
    EXPECT_EQ(pool.pop().orig_ids, reference[static_cast<std::size_t>(i)]);
  }
  pool.stop_async();
  EXPECT_FALSE(pool.async_running());
  // Queued subgraphs drain first, then inline refills continue the slot
  // sequence with no holes.
  for (int i = kPops / 2; i < kPops; ++i) {
    EXPECT_EQ(pool.pop().orig_ids, reference[static_cast<std::size_t>(i)])
        << "pop " << i << " diverged after stop_async";
  }
}

TEST(SubgraphPoolAsync, RestartAfterStopResumesProduction) {
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), async_options(2, 17));
  (void)pool.pop();
  pool.stop_async();
  pool.start_async();
  EXPECT_TRUE(pool.async_running());
  for (int i = 0; i < 6; ++i) {
    EXPECT_GT(pool.pop().num_vertices(), 0u);
  }
}

TEST(SubgraphPoolAsync, ConcurrentLifecycleCallsDoNotRace) {
  // Regression (thread-safety annotation sweep): start_async/stop_async
  // used to read, join, and reassign the producer std::thread handle
  // with no lock ordering them against each other, so two threads in the
  // lifecycle path could both join the same handle (UB) or leak a
  // producer. The handle is now serialized by lifecycle_mu_; hammer the
  // lifecycle from several threads while a consumer keeps popping. Runs
  // under the TSan ctest label (concurrency).
  const CsrGraph g = gsgcn::testing::small_er();
  SubgraphPool pool(g, dashboard_factory(g), async_options(2, 57, 4));
  util::parallel_region(4, [&](int tid, int /*nthreads*/) {
    for (int iter = 0; iter < 8; ++iter) {
      if (tid == 0) {
        EXPECT_GT(pool.pop().num_vertices(), 0u);
      } else if (tid % 2 == 1) {
        pool.start_async();
      } else {
        pool.stop_async();
      }
    }
  });
  pool.stop_async();
  EXPECT_FALSE(pool.async_running());
  // The pool must come out of the churn fully functional and still on
  // its determinism contract: seeking back to slot 0 replays the exact
  // sequence a fresh synchronous pool produces.
  std::vector<std::vector<Vid>> reference;
  {
    SubgraphPool fresh(g, dashboard_factory(g), sync_options(1, 57));
    for (int i = 0; i < 4; ++i) reference.push_back(fresh.pop().orig_ids);
  }
  pool.seek(0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.pop().orig_ids, reference[static_cast<std::size_t>(i)])
        << "pop " << i << " diverged after lifecycle churn + seek(0)";
  }
}

/// Sampler whose instance 0 throws on its second draw — exercises the
/// producer-side exception path.
class ThrowingSampler : public VertexSampler {
 public:
  ThrowingSampler(const CsrGraph& g, int instance)
      : inner_(g, params()), instance_(instance) {}

  std::vector<Vid> sample_vertices(util::Xoshiro256& rng) override {
    if (instance_ == 0 && ++calls_ >= 2) {
      throw std::runtime_error("sampler exploded");
    }
    return inner_.sample_vertices(rng);
  }

  std::string name() const override { return "throwing"; }

 private:
  static FrontierParams params() {
    FrontierParams p;
    p.frontier_size = 15;
    p.budget = 60;
    return p;
  }
  DashboardFrontierSampler inner_;
  int instance_;
  int calls_ = 0;
};

TEST(SubgraphPoolAsync, ExceptionPropagatesToConsumer) {
  const CsrGraph g = gsgcn::testing::small_er();
  auto factory = [&g](int instance) -> std::unique_ptr<VertexSampler> {
    return std::make_unique<ThrowingSampler>(g, instance);
  };
  // capacity == p_inter keeps the producer one batch ahead: batch 1 (slots
  // 0-1) succeeds, batch 2 throws on instance 0's second draw. The two
  // produced subgraphs drain normally, then the error surfaces.
  SubgraphPool pool(g, factory, async_options(2, 5, 2));
  EXPECT_GT(pool.pop().num_vertices(), 0u);
  EXPECT_GT(pool.pop().num_vertices(), 0u);
  EXPECT_THROW((void)pool.pop(), std::runtime_error);
  // The error is sticky: the pool stays failed instead of resampling.
  EXPECT_THROW((void)pool.pop(), std::runtime_error);
}

TEST(SubgraphPoolSync, ExceptionPropagatesFromInlineRefill) {
  const CsrGraph g = gsgcn::testing::small_er();
  auto factory = [&g](int instance) -> std::unique_ptr<VertexSampler> {
    return std::make_unique<ThrowingSampler>(g, instance);
  };
  SubgraphPool pool(g, factory, sync_options(2, 5));
  EXPECT_GT(pool.pop().num_vertices(), 0u);
  EXPECT_GT(pool.pop().num_vertices(), 0u);
  EXPECT_THROW((void)pool.pop(), std::runtime_error);
}

}  // namespace
}  // namespace gsgcn::sampling
