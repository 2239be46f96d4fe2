#include "propagation/feature_partitioned.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace gsgcn::propagation {

namespace {

struct Slice {
  std::size_t begin;
  std::size_t end;
};

Slice feature_slice(std::size_t f, int q, int i) {
  const std::size_t base = f / static_cast<std::size_t>(q);
  const std::size_t rem = f % static_cast<std::size_t>(q);
  const std::size_t b = static_cast<std::size_t>(i) * base +
                        std::min<std::size_t>(static_cast<std::size_t>(i), rem);
  const std::size_t len = base + (static_cast<std::size_t>(i) < rem ? 1 : 0);
  return {b, b + len};
}

static_assert(kMinSliceCols == static_cast<std::int64_t>(tiled::kChunkCols),
              "slices stop at the tiled kernel's register tile");

/// Q from the caller's pins, else one slice per processor (no slice
/// narrower than the register tile). A caller-supplied cache_bytes pins
/// Theorem 2's Q* (callers set it precisely to observe the analytic
/// response).
int pick_q(const graph::CsrGraph& g, std::size_t f,
           const FeaturePartitionOptions& opts, int threads) {
  // f == 0 still needs q >= 1 so the slice loop and its assert stay sane.
  const int fmax = static_cast<int>(std::max<std::size_t>(f, 1));
  if (opts.force_q > 0) return std::min(opts.force_q, fmax);
  if (opts.cache_bytes == 0) {
    return choose_parallel_partitions(static_cast<std::int64_t>(f), threads);
  }
  CommModelParams m;
  m.n = g.num_vertices();
  m.d = g.average_degree();
  m.f = static_cast<std::int64_t>(f);
  m.elem_bytes = sizeof(float);
  m.idx_bytes = sizeof(graph::Vid);
  m.cache_bytes = opts.cache_bytes;
  m.processors = threads;
  return choose_feature_partitions(m);
}

void check(const graph::CsrGraph& g, const tensor::Matrix& a,
           const tensor::Matrix& b) {
  if (a.rows() != g.num_vertices() || b.rows() != g.num_vertices() ||
      a.cols() != b.cols()) {
    throw std::invalid_argument("feature_partitioned: bad shapes");
  }
  // Zero-sized matrices may legitimately share a null data pointer.
  if (a.size() != 0 && a.data() == b.data()) {
    throw std::invalid_argument("feature_partitioned: in/out must not alias");
  }
}

}  // namespace

int propagate_feature_partitioned(const graph::CsrGraph& g,
                                  const tensor::Matrix& in, tensor::Matrix& out,
                                  const FeaturePartitionOptions& opts) {
  check(g, in, out);
  const int c = util::resolve_threads(opts.threads);
  const std::size_t f = in.cols();
  const graph::Vid n = g.num_vertices();
  const std::vector<float> w =
      tiled::source_weights(g, opts.aggregator, /*backward=*/false, c);
  const float* wp = w.empty() ? nullptr : w.data();
  // Q/C rounds of C concurrent slices (Algorithm 6 lines 4-6). A single
  // collapsed parallel-for gives the same schedule with less fork/join.
  const int q = pick_q(g, f, opts, c);
  GSGCN_ASSERT(
      q >= 1 && static_cast<std::size_t>(q) <= std::max<std::size_t>(f, 1),
      "feature partition count out of range");
  GSGCN_TRACE_SPAN_ID("featprop/forward", q);
  util::parallel_for(q, c, [&](std::int64_t i) {
    const Slice s = feature_slice(f, q, static_cast<int>(i));
    tiled::aggregate_rows(g, opts.aggregator, /*backward=*/false, in, out, 0,
                          n, s.begin, s.end, wp);
  });
  return q;
}

int propagate_feature_partitioned_backward(const graph::CsrGraph& g,
                                           const tensor::Matrix& d_out,
                                           tensor::Matrix& d_in,
                                           const FeaturePartitionOptions& opts) {
  check(g, d_out, d_in);
  const int c = util::resolve_threads(opts.threads);
  const std::size_t f = d_out.cols();
  const graph::Vid n = g.num_vertices();
  const std::vector<float> w =
      tiled::source_weights(g, opts.aggregator, /*backward=*/true, c);
  const float* wp = w.empty() ? nullptr : w.data();
  const int q = pick_q(g, f, opts, c);
  GSGCN_ASSERT(
      q >= 1 && static_cast<std::size_t>(q) <= std::max<std::size_t>(f, 1),
      "feature partition count out of range");
  GSGCN_TRACE_SPAN_ID("featprop/backward", q);
  util::parallel_for(q, c, [&](std::int64_t i) {
    const Slice s = feature_slice(f, q, static_cast<int>(i));
    tiled::aggregate_rows(g, opts.aggregator, /*backward=*/true, d_out, d_in,
                          0, n, s.begin, s.end, wp);
  });
  return q;
}

void propagate_2d(const graph::CsrGraph& g, const graph::Partition& parts,
                  int q, AggregatorKind kind, const tensor::Matrix& in,
                  tensor::Matrix& out, int threads) {
  check(g, in, out);
  if (q < 1) throw std::invalid_argument("propagate_2d: q >= 1");
  const int p = static_cast<int>(parts.num_parts());
#if GSGCN_CHECKS_ENABLED
  {
    // Partition coverage: every vertex appears in exactly one part, so
    // every output row is written by exactly one (pi, qi) tile owner.
    std::size_t covered = 0;
    for (const auto& part : parts.parts) {
      covered += part.size();
      for (const graph::Vid v : part) GSGCN_CHECK_BOUNDS(v, g.num_vertices());
    }
    GSGCN_ASSERT(covered == g.num_vertices(),
                 "propagate_2d: partition does not cover the vertex set");
  }
#endif
  const std::vector<float> w =
      tiled::source_weights(g, kind, /*backward=*/false, threads);
  const float* wp = w.empty() ? nullptr : w.data();
  const int total = p * q;
  GSGCN_TRACE_SPAN_ID("propagate_2d", total);
  // Tiles are irregular (part sizes vary): hand them out dynamically.
  util::parallel_for_dynamic(total, threads, [&](std::int64_t t) {
    const int pi = static_cast<int>(t) / q;
    const int qi = static_cast<int>(t) % q;
    const Slice s = feature_slice(in.cols(), q, qi);
    const auto& rows = parts.parts[static_cast<std::size_t>(pi)];
    tiled::aggregate_rows(g, kind, /*backward=*/false, in, out,
                          std::span<const graph::Vid>(rows.data(), rows.size()),
                          s.begin, s.end, wp);
  });
}

}  // namespace gsgcn::propagation
