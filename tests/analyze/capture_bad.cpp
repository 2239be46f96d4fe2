// Golden fixture: parallel-capture check MUST flag both lambdas — a
// by-reference-captured accumulator written by every team member, and a
// fixed-index write reached through [&].
#include <cstdint>
#include <vector>

#include "util/parallel.hpp"

double unsynchronized_sum(const std::vector<double>& v, int threads) {
  double sum = 0.0;
  gsgcn::util::parallel_for_ranges(
      static_cast<std::int64_t>(v.size()), threads,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          sum += v[i];  // FINDING: by-ref capture written across the team
        }
      });
  return sum;
}

void racy_flag(std::vector<int>& out, std::int64_t n, int threads) {
  gsgcn::util::parallel_for(n, threads, [&](std::int64_t i) {
    out[0] = static_cast<int>(i);  // FINDING: fixed-index shared write
  });
}
