// Unit tests for the util library: RNG, aligned buffer, stats, table,
// CLI parsing, range splitting and parallel loops, env knobs.

#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdlib>
#include <set>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/mutex.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace gsgcn::util {
namespace {

TEST(AlignedBuffer, Is64ByteAligned) {
  AlignedBuffer<float> buf(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLine, 0u);
  EXPECT_EQ(buf.size(), 100u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[0] = 42;
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b[0], 42);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.data(), nullptr);
}

TEST(AlignedBuffer, ResetReallocates) {
  AlignedBuffer<double> a(4);
  a.reset(16);
  EXPECT_EQ(a.size(), 16u);
  a.reset(0);
  EXPECT_TRUE(a.empty());
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamsAreDecorrelated) {
  Xoshiro256 a = Xoshiro256::stream(9, 0);
  Xoshiro256 b = Xoshiro256::stream(9, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(11);
  const std::uint32_t bins = 10;
  const int draws = 100000;
  std::vector<double> observed(bins, 0.0);
  for (int i = 0; i < draws; ++i) ++observed[rng.below(bins)];
  const std::vector<double> expected(bins, draws / static_cast<double>(bins));
  const double stat = chi_square_statistic(observed, expected);
  EXPECT_LT(stat, chi_square_critical(bins - 1, 0.001));
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(17);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.03);
  EXPECT_NEAR(stddev(xs), 1.0, 0.03);
}

TEST(Rng, PermutationIsPermutation) {
  Xoshiro256 rng(2);
  const auto perm = random_permutation(100, rng);
  std::set<std::uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = sample_without_replacement(50, 20, rng);
    std::set<std::uint32_t> seen(s.begin(), s.end());
    EXPECT_EQ(seen.size(), 20u);
    for (const auto v : s) EXPECT_LT(v, 50u);
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Xoshiro256 rng(4);
  const auto s = sample_without_replacement(10, 10, rng);
  std::set<std::uint32_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementUniform) {
  // Every element of {0..9} should appear in ~k/n of draws.
  Xoshiro256 rng(8);
  std::vector<double> counts(10, 0.0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (const auto v : sample_without_replacement(10, 3, rng)) ++counts[v];
  }
  const std::vector<double> expected(10, trials * 0.3);
  EXPECT_LT(chi_square_statistic(counts, expected),
            chi_square_critical(9, 0.001));
}

TEST(Stats, MeanStddevMedian) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(stddev({}), 0.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, ChiSquareCriticalMonotone) {
  // Critical values grow with df and shrink with alpha.
  EXPECT_LT(chi_square_critical(5, 0.05), chi_square_critical(10, 0.05));
  EXPECT_LT(chi_square_critical(10, 0.05), chi_square_critical(10, 0.01));
  // Reference: chi2(0.05, df=10) ≈ 18.307.
  EXPECT_NEAR(chi_square_critical(10, 0.05), 18.307, 0.5);
}

TEST(Stats, ChiSquareCriticalZeroDegreesOfFreedom) {
  // df = 0 is a point mass at 0; the Wilson–Hilferty formula would divide
  // by zero without the guard.
  EXPECT_DOUBLE_EQ(chi_square_critical(0, 0.05), 0.0);
  EXPECT_DOUBLE_EQ(chi_square_critical(0, 0.001), 0.0);
}

TEST(Stats, ChiSquareStatisticZeroWhenEqual) {
  EXPECT_DOUBLE_EQ(chi_square_statistic({5, 5}, {5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(chi_square_statistic({6, 4}, {5, 5}), 0.4);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("x").cell(std::int64_t{7});
  t.row().cell("longer").cell(3.14159, 2);
  const std::string s = t.str();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
}

TEST(Table, SpeedupFormat) {
  EXPECT_EQ(speedup_str(2.5), "2.50x");
  EXPECT_EQ(speedup_str(21.0, 0), "21x");
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--flag"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get("alpha", std::int64_t{0}), 3);
  EXPECT_DOUBLE_EQ(cli.get("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.get("flag", false));
  EXPECT_EQ(cli.get("missing", std::string("dft")), "dft");
  EXPECT_TRUE(cli.unused().empty());
}

TEST(Cli, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.unused().size(), 1u);
  EXPECT_EQ(cli.unused()[0], "oops");
}

TEST(Cli, RejectsPositionalArgs) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Cli(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Parallel, SplitRangeCoversAll) {
  for (int p : {1, 2, 3, 7}) {
    std::int64_t covered = 0;
    std::int64_t prev_end = 0;
    for (int i = 0; i < p; ++i) {
      const auto r = split_range(100, p, i);
      EXPECT_EQ(r.begin, prev_end);
      covered += r.end - r.begin;
      prev_end = r.end;
    }
    EXPECT_EQ(covered, 100);
    EXPECT_EQ(prev_end, 100);
  }
}

TEST(Parallel, SplitRangeBalanced) {
  // Chunks differ by at most 1.
  std::int64_t lo = 1000, hi = 0;
  for (int i = 0; i < 7; ++i) {
    const auto r = split_range(100, 7, i);
    lo = std::min(lo, r.end - r.begin);
    hi = std::max(hi, r.end - r.begin);
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(Parallel, TeamNeverShrinks) {
#ifdef GSGCN_THREAD_BACKEND
  GTEST_SKIP() << "the std::thread backend starts a fresh team per region";
#endif
  // A loop shorter than the thread budget still runs on the full team:
  // asking libgomp for a smaller one makes it end its surplus pool
  // threads and create new ones at the next full-size loop.
  constexpr int kThreads = 4;
  Mutex mu;  // unguarded-ok: guards `ids`, a local GUARDED_BY cannot name
  std::set<long> ids;
  auto record = [&] {
    MutexLock lock(mu);
    ids.insert(::syscall(SYS_gettid));
  };
  parallel_region(kThreads, [&](int, int) { record(); });
  const std::size_t first = ids.size();
  for (int round = 0; round < 20; ++round) {
    for (const std::int64_t n : {std::int64_t{3}, std::int64_t{100}}) {
      parallel_for(n, kThreads, [&](std::int64_t) { record(); });
      parallel_for_ranges(n, kThreads,
                          [&](std::int64_t, std::int64_t) { record(); });
      parallel_for_dynamic(n, kThreads, [&](std::int64_t) { record(); });
    }
  }
  EXPECT_EQ(ids.size(), first);
}

TEST(Parallel, NestedLoopsRunEveryIndexOnce) {
  // Inside a region OpenMP forms a one-member team, so the helpers must
  // chunk by the team formed, not by the budget asked for.
  constexpr int kThreads = 4;
  for (const std::int64_t n : {1, 2, 3, 5, 100}) {
    // counts[member][i]: how often member's inner loop ran index i.
    std::vector<std::vector<int>> counts(kThreads);
    auto nested = [&](auto&& inner) {
      parallel_region(kThreads, [&](int tid, int) {
        std::vector<int>& mine = counts[tid];
        mine.assign(static_cast<std::size_t>(n), 0);
        inner(mine);
      });
      for (int t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < counts[t].size(); ++i) {
          EXPECT_EQ(counts[t][i], 1) << "n=" << n << " member " << t
                                     << " index " << i;
        }
      }
    };
    nested([&](std::vector<int>& mine) {
      parallel_for(n, kThreads, [&](std::int64_t i) { ++mine[i]; });
    });
    nested([&](std::vector<int>& mine) {
      parallel_for_ranges(n, kThreads, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) ++mine[i];
      });
    });
    nested([&](std::vector<int>& mine) {
      parallel_for_dynamic(n, kThreads, [&](std::int64_t i) { ++mine[i]; });
    });
  }
}

TEST(Parallel, PrivateCacheBytesIsPlausible) {
  const std::size_t bytes = private_cache_bytes();
  EXPECT_GE(bytes, 16u * 1024);          // nothing ships less than 16K L2
  EXPECT_LE(bytes, 512u * 1024 * 1024);  // or more than 512M
}

TEST(Parallel, PinCurrentThreadDoesNotCrash) {
  // Pinning may be denied in containers; either outcome is acceptable,
  // but the call must be safe and the thread must keep running.
  (void)pin_current_thread_to_cpu(0);
  (void)pin_current_thread_to_cpu(12345);  // wraps modulo num_procs
  EXPECT_FALSE(pin_current_thread_to_cpu(-1));
  SUCCEED();
}

TEST(Env, FallbacksWhenUnset) {
  ::unsetenv("GSGCN_TEST_UNSET_VAR");
  EXPECT_EQ(env_int("GSGCN_TEST_UNSET_VAR", 5), 5);
  EXPECT_EQ(env_string("GSGCN_TEST_UNSET_VAR", "d"), "d");
  EXPECT_DOUBLE_EQ(env_double("GSGCN_TEST_UNSET_VAR", 1.5), 1.5);
}

TEST(Env, ReadsSetValues) {
  ::setenv("GSGCN_TEST_SET_VAR", "17", 1);
  EXPECT_EQ(env_int("GSGCN_TEST_SET_VAR", 5), 17);
  ::unsetenv("GSGCN_TEST_SET_VAR");
}

TEST(Env, ScaleIsClamped) {
  ::setenv("GSGCN_SCALE", "10000", 1);
  EXPECT_DOUBLE_EQ(dataset_scale(), 100.0);
  ::setenv("GSGCN_SCALE", "0", 1);
  EXPECT_DOUBLE_EQ(dataset_scale(), 0.01);
  ::unsetenv("GSGCN_SCALE");
}

TEST(Env, RejectsTrailingGarbageNamingTheVariable) {
  ::setenv("GSGCN_TEST_STRICT_VAR", "17x", 1);
  try {
    env_int("GSGCN_TEST_STRICT_VAR", 5);
    FAIL() << "expected rejection of '17x'";
  } catch (const std::runtime_error& e) {
    // The message must name both the variable and the offending text —
    // "invalid integer" alone is undebuggable in a 12-knob environment.
    EXPECT_NE(std::string(e.what()).find("GSGCN_TEST_STRICT_VAR"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("17x"), std::string::npos) << e.what();
  }
  ::setenv("GSGCN_TEST_STRICT_VAR", "1.5abc", 1);
  EXPECT_THROW(env_double("GSGCN_TEST_STRICT_VAR", 0.0), std::runtime_error);
  ::unsetenv("GSGCN_TEST_STRICT_VAR");
}

TEST(Env, RejectsOverflowEmptyAndNonFinite) {
  ::setenv("GSGCN_TEST_STRICT_VAR", "99999999999999999999", 1);  // > int64
  EXPECT_THROW(env_int("GSGCN_TEST_STRICT_VAR", 5), std::runtime_error);
  ::setenv("GSGCN_TEST_STRICT_VAR", "1e999", 1);  // double overflow
  EXPECT_THROW(env_double("GSGCN_TEST_STRICT_VAR", 0.0), std::runtime_error);
  ::setenv("GSGCN_TEST_STRICT_VAR", "inf", 1);  // finite knobs only
  EXPECT_THROW(env_double("GSGCN_TEST_STRICT_VAR", 0.0), std::runtime_error);
  ::setenv("GSGCN_TEST_STRICT_VAR", "nan", 1);
  EXPECT_THROW(env_double("GSGCN_TEST_STRICT_VAR", 0.0), std::runtime_error);
  ::setenv("GSGCN_TEST_STRICT_VAR", "", 1);  // set-but-empty is not a number
  EXPECT_THROW(env_int("GSGCN_TEST_STRICT_VAR", 5), std::runtime_error);
  ::unsetenv("GSGCN_TEST_STRICT_VAR");
}

TEST(Env, StrictnessStillAcceptsOrdinaryValues) {
  ::setenv("GSGCN_TEST_STRICT_VAR", "-42", 1);
  EXPECT_EQ(env_int("GSGCN_TEST_STRICT_VAR", 5), -42);
  ::setenv("GSGCN_TEST_STRICT_VAR", "2.5e-3", 1);
  EXPECT_DOUBLE_EQ(env_double("GSGCN_TEST_STRICT_VAR", 0.0), 2.5e-3);
  ::unsetenv("GSGCN_TEST_STRICT_VAR");
}

TEST(ParseNumeric, WholeTokenContract) {
  std::int64_t i = 0;
  EXPECT_TRUE(parse_int64("123", i));
  EXPECT_EQ(i, 123);
  EXPECT_FALSE(parse_int64("", i));
  EXPECT_FALSE(parse_int64("12x", i));
  EXPECT_FALSE(parse_int64("3.5", i));  // a float is not an int knob
  EXPECT_FALSE(parse_int64("x12", i));
  EXPECT_FALSE(parse_int64("12 ", i));  // trailing space is garbage too
  double d = 0.0;
  EXPECT_TRUE(parse_double("-0.25", d));
  EXPECT_DOUBLE_EQ(d, -0.25);
  EXPECT_TRUE(parse_double("1e3", d));
  EXPECT_FALSE(parse_double("1.5.2", d));
  EXPECT_FALSE(parse_double("nan", d));
  EXPECT_FALSE(parse_double("1e999", d));
}

TEST(Cli, RejectsMalformedNumericFlagsNamingTheFlag) {
  const char* argv[] = {"prog", "--epochs=5x", "--lr=abc"};
  Cli cli(3, const_cast<char**>(argv));
  try {
    cli.get("epochs", std::int64_t{1});
    FAIL() << "expected rejection of --epochs=5x";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--epochs"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(cli.get("lr", 0.1), std::invalid_argument);
}

TEST(Cli, IntGetterRangeChecksInsteadOfWrapping) {
  const char* argv[] = {"prog", "--epochs=99999999999"};
  Cli cli(2, const_cast<char**>(argv));
  // Fits int64 but not int: the narrow getter must reject, not truncate.
  EXPECT_EQ(cli.get("epochs", std::int64_t{1}), 99999999999LL);
  EXPECT_THROW(cli.get("epochs", 1), std::invalid_argument);
}

TEST(ParseDuration, SuffixesNormalizeToMilliseconds) {
  double ms = -1.0;
  EXPECT_TRUE(Cli::parse_duration_ms("500us", ms));
  EXPECT_DOUBLE_EQ(ms, 0.5);
  EXPECT_TRUE(Cli::parse_duration_ms("50ms", ms));
  EXPECT_DOUBLE_EQ(ms, 50.0);
  EXPECT_TRUE(Cli::parse_duration_ms("2s", ms));
  EXPECT_DOUBLE_EQ(ms, 2000.0);
  EXPECT_TRUE(Cli::parse_duration_ms("1.5s", ms));
  EXPECT_DOUBLE_EQ(ms, 1500.0);
  // Bare numbers are already milliseconds (back-compat with plain flags).
  EXPECT_TRUE(Cli::parse_duration_ms("250", ms));
  EXPECT_DOUBLE_EQ(ms, 250.0);
  EXPECT_TRUE(Cli::parse_duration_ms("0", ms));
  EXPECT_DOUBLE_EQ(ms, 0.0);
  EXPECT_TRUE(Cli::parse_duration_ms("2e3ms", ms));
  EXPECT_DOUBLE_EQ(ms, 2000.0);
}

TEST(ParseDuration, WholeTokenContract) {
  // Same strictness as the numeric getters: trailing garbage, unknown
  // suffixes, negatives, and non-finite values are rejected, never
  // truncated or guessed at.
  double ms = 0.0;
  EXPECT_FALSE(Cli::parse_duration_ms("", ms));
  EXPECT_FALSE(Cli::parse_duration_ms("ms", ms));        // no number
  EXPECT_FALSE(Cli::parse_duration_ms("5 ms", ms));      // inner space
  EXPECT_FALSE(Cli::parse_duration_ms("5m", ms));        // unknown suffix
  EXPECT_FALSE(Cli::parse_duration_ms("5min", ms));
  EXPECT_FALSE(Cli::parse_duration_ms("5msx", ms));
  EXPECT_FALSE(Cli::parse_duration_ms("-5ms", ms));      // durations >= 0
  EXPECT_FALSE(Cli::parse_duration_ms("nan", ms));
  EXPECT_FALSE(Cli::parse_duration_ms("1e999s", ms));    // overflow
}

TEST(Cli, DurationGetterThrowsNamingTheFlag) {
  const char* argv[] = {"prog", "--batch-window=2ms", "--deadline=oops"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_duration_ms("batch-window", 10.0), 2.0);
  EXPECT_DOUBLE_EQ(cli.get_duration_ms("missing", 7.5), 7.5);
  try {
    cli.get_duration_ms("deadline", 0.0);
    FAIL() << "expected rejection of --deadline=oops";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--deadline"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace gsgcn::util
