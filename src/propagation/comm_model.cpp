#include "propagation/comm_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gsgcn::propagation {

double g_comp(const CommModelParams& m) {
  return static_cast<double>(m.n) * m.d * static_cast<double>(m.f);
}

double g_comm(const CommModelParams& m, int p, int q, double gamma_p) {
  if (p < 1 || q < 1) throw std::invalid_argument("g_comm: P, Q >= 1");
  if (gamma_p < 0.0 || gamma_p > 1.0) {
    throw std::invalid_argument("g_comm: gamma out of [0,1]");
  }
  const double index_traffic = static_cast<double>(m.idx_bytes) * q *
                               static_cast<double>(m.n) * m.d;
  const double feature_traffic = static_cast<double>(m.elem_bytes) * p *
                                 static_cast<double>(m.n) *
                                 static_cast<double>(m.f) * gamma_p;
  return index_traffic + feature_traffic;
}

int choose_feature_partitions(const CommModelParams& m) {
  if (m.processors < 1) throw std::invalid_argument("choose_q: C >= 1");
  if (m.cache_bytes == 0) {
    throw std::invalid_argument("choose_q: S_cache must be positive");
  }
  const double bytes = static_cast<double>(m.elem_bytes) *
                       static_cast<double>(m.n) * static_cast<double>(m.f);
  const int q_cache = static_cast<int>(
      std::ceil(bytes / static_cast<double>(m.cache_bytes)));
  // Q* = max{C, ⌈elem·n·f / S_cache⌉} exactly as in Theorem 2 — rounding Q
  // up further (e.g. to a multiple of C) can break the 2-approximation.
  int q = std::max(m.processors, std::max(1, q_cache));
  // Never more slices than features.
  q = std::min<int>(q, static_cast<int>(std::max<std::int64_t>(1, m.f)));
  return q;
}

int choose_parallel_partitions(std::int64_t f, int processors) {
  if (processors < 1) throw std::invalid_argument("choose_q: C >= 1");
  const std::int64_t slices = (f + kMinSliceCols - 1) / kMinSliceCols;
  return static_cast<int>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(processors, slices)));
}

double g_comm_lower_bound(const CommModelParams& m) {
  return static_cast<double>(m.elem_bytes) * static_cast<double>(m.n) *
         static_cast<double>(m.f);
}

bool theorem2_preconditions(const CommModelParams& m) {
  // C ≤ 4f/d (paper's constants give the factor elem/(2·idx) = 4/2 → the
  // published form C ≤ 4f/d assumes elem=8, idx=2; generalized:
  // C·idx·d ≤ elem·f/2) and the index stream fits the FULL private cache:
  // idx·n·d ≤ S_cache — the paper's 2nd ≤ S_cache with idx = 2 bytes.
  // (Only the C-bound carries a 1/2; the feature slices are already sized
  // to the cache by Q*, the index stream is what must additionally fit.)
  const double lhs_c = static_cast<double>(m.processors) *
                       static_cast<double>(m.idx_bytes) * m.d;
  const double rhs_c = 0.5 * static_cast<double>(m.elem_bytes) *
                       static_cast<double>(m.f);
  const double idx_stream = static_cast<double>(m.idx_bytes) *
                            static_cast<double>(m.n) * m.d;
  return lhs_c <= rhs_c && idx_stream <= static_cast<double>(m.cache_bytes);
}

}  // namespace gsgcn::propagation
