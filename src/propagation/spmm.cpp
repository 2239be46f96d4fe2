#include "propagation/spmm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/check.hpp"
#include "util/parallel.hpp"

#ifdef GSGCN_AVX2
#include <immintrin.h>
#endif

namespace gsgcn::propagation {

namespace {

void check_shapes(const graph::CsrGraph& g, const tensor::Matrix& a,
                  const tensor::Matrix& b, const char* what) {
  if (a.rows() != g.num_vertices() || b.rows() != g.num_vertices() ||
      a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch");
  }
  // Zero-sized matrices may legitimately share a null data pointer.
  if (a.size() != 0 && a.data() == b.data()) {
    throw std::invalid_argument(std::string(what) + ": in/out must not alias");
  }
}

/// dst[0..f) += s * src[0..f)
inline void axpy_row(float* dst, const float* src, std::size_t f, float s) {
#ifdef GSGCN_AVX2
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= f; j += 8) {
    _mm256_storeu_ps(dst + j, _mm256_fmadd_ps(vs, _mm256_loadu_ps(src + j),
                                              _mm256_loadu_ps(dst + j)));
  }
  for (; j < f; ++j) dst[j] += s * src[j];
#else
  for (std::size_t j = 0; j < f; ++j) dst[j] += s * src[j];
#endif
}

// ---- tiled row-block kernel ----------------------------------------------

/// Epilogue scale fused into the store of each output chunk.
enum class RowScale { kNone, kInvDegree, kRsqrtDegree };

RowScale row_scale(AggregatorKind kind, bool backward) {
  if (kind == AggregatorKind::kSymmetric) return RowScale::kRsqrtDegree;
  if (kind == AggregatorKind::kMean && !backward) return RowScale::kInvDegree;
  return RowScale::kNone;
}

bool needs_weights(AggregatorKind kind, bool backward) {
  return kind == AggregatorKind::kSymmetric ||
         (kind == AggregatorKind::kMean && backward);
}

/// One destination row over columns [c0, c1), stored to out_row[c0, c1):
///   dst[j] = s_v · Σ_{u ∈ N(v)} w[u] · in[u][j]
/// Column chunks accumulate in registers across the whole neighbor list
/// and store once — no memset pass, no read-modify-write per neighbor, no
/// separate scale pass. Bit-identity contract (see spmm.hpp): the 32-wide,
/// 8-wide and scalar paths all apply the same per-element chain — FMA per
/// neighbor when weighted, plain add when not, one multiply at the end —
/// so slice boundaries cannot change any element's value.
void tiled_row(const graph::CsrGraph& g, graph::Vid v,
               const tensor::Matrix& in, float* out_row, std::size_t c0,
               std::size_t c1, const float* w, RowScale scale) {
  float* dst = out_row + c0;
  const std::size_t len = c1 - c0;
  const auto nbrs = g.neighbors(v);
  if (nbrs.empty()) {
    std::memset(dst, 0, len * sizeof(float));
    return;
  }
  float s = 1.0f;
  if (scale == RowScale::kInvDegree) {
    s = 1.0f / static_cast<float>(nbrs.size());
  } else if (scale == RowScale::kRsqrtDegree) {
    s = 1.0f / std::sqrt(static_cast<float>(nbrs.size()));
  }
  const bool scaled = scale != RowScale::kNone;
  const graph::Vid n [[maybe_unused]] = g.num_vertices();
  std::size_t j = 0;
#ifdef GSGCN_AVX2
  const __m256 vs = _mm256_set1_ps(s);
  static_assert(tiled::kChunkCols == 32, "four ymm accumulators below");
  for (; j + tiled::kChunkCols <= len; j += tiled::kChunkCols) {
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    if (w != nullptr) {
      for (const graph::Vid u : nbrs) {
        GSGCN_CHECK_BOUNDS(u, n);
        const float* src = in.row(u) + c0 + j;
        const __m256 vw = _mm256_set1_ps(w[u]);
        a0 = _mm256_fmadd_ps(vw, _mm256_loadu_ps(src), a0);
        a1 = _mm256_fmadd_ps(vw, _mm256_loadu_ps(src + 8), a1);
        a2 = _mm256_fmadd_ps(vw, _mm256_loadu_ps(src + 16), a2);
        a3 = _mm256_fmadd_ps(vw, _mm256_loadu_ps(src + 24), a3);
      }
    } else {
      for (const graph::Vid u : nbrs) {
        GSGCN_CHECK_BOUNDS(u, n);
        const float* src = in.row(u) + c0 + j;
        a0 = _mm256_add_ps(a0, _mm256_loadu_ps(src));
        a1 = _mm256_add_ps(a1, _mm256_loadu_ps(src + 8));
        a2 = _mm256_add_ps(a2, _mm256_loadu_ps(src + 16));
        a3 = _mm256_add_ps(a3, _mm256_loadu_ps(src + 24));
      }
    }
    if (scaled) {
      a0 = _mm256_mul_ps(a0, vs);
      a1 = _mm256_mul_ps(a1, vs);
      a2 = _mm256_mul_ps(a2, vs);
      a3 = _mm256_mul_ps(a3, vs);
    }
    _mm256_storeu_ps(dst + j, a0);
    _mm256_storeu_ps(dst + j + 8, a1);
    _mm256_storeu_ps(dst + j + 16, a2);
    _mm256_storeu_ps(dst + j + 24, a3);
  }
  for (; j + 8 <= len; j += 8) {
    __m256 a = _mm256_setzero_ps();
    if (w != nullptr) {
      for (const graph::Vid u : nbrs) {
        GSGCN_CHECK_BOUNDS(u, n);
        a = _mm256_fmadd_ps(_mm256_set1_ps(w[u]),
                            _mm256_loadu_ps(in.row(u) + c0 + j), a);
      }
    } else {
      for (const graph::Vid u : nbrs) {
        GSGCN_CHECK_BOUNDS(u, n);
        a = _mm256_add_ps(a, _mm256_loadu_ps(in.row(u) + c0 + j));
      }
    }
    if (scaled) a = _mm256_mul_ps(a, vs);
    _mm256_storeu_ps(dst + j, a);
  }
#endif
  // Scalar tail (and the whole row when AVX2 is off). std::fma compiles to
  // vfmadd under -mfma and mirrors the vector lanes exactly.
  for (; j < len; ++j) {
    float a = 0.0f;
    if (w != nullptr) {
      for (const graph::Vid u : nbrs) {
        GSGCN_CHECK_BOUNDS(u, n);
        a = std::fma(w[u], in.row(u)[c0 + j], a);
      }
    } else {
      for (const graph::Vid u : nbrs) {
        GSGCN_CHECK_BOUNDS(u, n);
        a += in.row(u)[c0 + j];
      }
    }
    dst[j] = scaled ? a * s : a;
  }
}

/// Row-block dispatch shared by the aggregate_* entry points: full feature
/// width, parallel over blocks of kRowBlock destination rows.
void aggregate_tiled(const graph::CsrGraph& g, AggregatorKind kind,
                     bool backward, const tensor::Matrix& in,
                     tensor::Matrix& out, int threads) {
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  const std::size_t f = in.cols();
  const std::vector<float> w = tiled::source_weights(g, kind, backward, threads);
  const float* wp = w.empty() ? nullptr : w.data();
  const std::int64_t blocks = (n + tiled::kRowBlock - 1) / tiled::kRowBlock;
  util::parallel_for(blocks, threads, [&](std::int64_t b) {
    const auto r0 = static_cast<graph::Vid>(b * tiled::kRowBlock);
    const auto r1 = static_cast<graph::Vid>(
        std::min<std::int64_t>(n, (b + 1) * tiled::kRowBlock));
    tiled::aggregate_rows(g, kind, backward, in,
                          tensor::MatrixView::rows_slice(out, r0, r1 - r0),
                          r0, r1, 0, f, wp);
  });
}

}  // namespace

namespace tiled {

std::vector<float> source_weights(const graph::CsrGraph& g,
                                  AggregatorKind kind, bool backward,
                                  int threads) {
  std::vector<float> w;
  if (!needs_weights(kind, backward)) return w;
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  const bool symmetric = kind == AggregatorKind::kSymmetric;
  w.resize(static_cast<std::size_t>(n));
  util::parallel_for(n, threads, [&](std::int64_t i) {
    const auto d = static_cast<float>(g.degree(static_cast<graph::Vid>(i)));
    // Isolated vertices never appear as a neighbor, so their entry is moot;
    // 0 keeps the table finite either way.
    if (d == 0.0f) {
      w[static_cast<std::size_t>(i)] = 0.0f;
    } else {
      w[static_cast<std::size_t>(i)] = symmetric ? 1.0f / std::sqrt(d)
                                                 : 1.0f / d;
    }
  });
  return w;
}

void aggregate_rows(const graph::CsrGraph& g, AggregatorKind kind,
                    bool backward, const tensor::Matrix& in,
                    tensor::MatrixView out, graph::Vid row_begin,
                    graph::Vid row_end, std::size_t col_begin,
                    std::size_t col_end, const float* src_weights) {
  GSGCN_ASSERT((src_weights != nullptr) == needs_weights(kind, backward),
               "tiled::aggregate_rows: weight table does not match path");
  GSGCN_ASSERT(out.rows() == row_end - row_begin && col_end <= out.cols(),
               "tiled::aggregate_rows: output view does not cover the range");
  const RowScale scale = row_scale(kind, backward);
  for (graph::Vid v = row_begin; v < row_end; ++v) {
    tiled_row(g, v, in, out.row(v - row_begin), col_begin, col_end,
              src_weights, scale);
  }
}

void aggregate_rows(const graph::CsrGraph& g, AggregatorKind kind,
                    bool backward, const tensor::Matrix& in,
                    tensor::Matrix& out, std::span<const graph::Vid> rows,
                    std::size_t col_begin, std::size_t col_end,
                    const float* src_weights) {
  GSGCN_ASSERT((src_weights != nullptr) == needs_weights(kind, backward),
               "tiled::aggregate_rows: weight table does not match path");
  const RowScale scale = row_scale(kind, backward);
  for (const graph::Vid v : rows) {
    tiled_row(g, v, in, out.row(v), col_begin, col_end, src_weights, scale);
  }
}

}  // namespace tiled

const char* aggregator_name(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kMean: return "mean";
    case AggregatorKind::kSum: return "sum";
    case AggregatorKind::kSymmetric: return "symmetric";
  }
  return "?";
}

void aggregate_forward(const graph::CsrGraph& g, AggregatorKind kind,
                       const tensor::Matrix& in, tensor::Matrix& out,
                       int threads) {
  check_shapes(g, in, out, "aggregate_forward");
  aggregate_tiled(g, kind, /*backward=*/false, in, out, threads);
}

void aggregate_backward(const graph::CsrGraph& g, AggregatorKind kind,
                        const tensor::Matrix& d_out, tensor::Matrix& d_in,
                        int threads) {
  // Sum and symmetric normalization are self-adjoint on an undirected
  // graph; mean flips the 1/deg from the destination to the source, which
  // the weight table expresses — all three are one tiled call.
  check_shapes(g, d_out, d_in, "aggregate_backward");
  aggregate_tiled(g, kind, /*backward=*/true, d_out, d_in, threads);
}

void aggregate_forward_edge_centric(const graph::CsrGraph& g,
                                    AggregatorKind kind,
                                    const tensor::Matrix& in,
                                    tensor::Matrix& out, int threads) {
  check_shapes(g, in, out, "aggregate_forward_edge_centric");
  const graph::Vid n = g.num_vertices();
  const std::size_t f = in.cols();
  out.set_zero();
  util::parallel_region(threads, [&](int tid, int nt) {
    const auto range = util::split_range(n, nt, tid);
    // Stream all edges; scatter only those whose destination falls in
    // this thread's range (no write races, full edge scan per thread).
    for (graph::Vid src = 0; src < n; ++src) {
      const float* src_row = in.row(src);
      for (const graph::Vid dst : g.neighbors(src)) {
        GSGCN_CHECK_BOUNDS(dst, n);
        if (dst < range.begin || dst >= static_cast<graph::Vid>(range.end)) {
          continue;
        }
        float w = 1.0f;
        if (kind == AggregatorKind::kMean) {
          w = 1.0f / static_cast<float>(g.degree(dst));
        } else if (kind == AggregatorKind::kSymmetric) {
          w = 1.0f / std::sqrt(static_cast<float>(g.degree(dst)) *
                               static_cast<float>(g.degree(src)));
        }
        axpy_row(out.row(dst), src_row, f, w);
      }
    }
  });
}

void aggregate_mean_forward(const graph::CsrGraph& g, const tensor::Matrix& in,
                            tensor::Matrix& out, int threads) {
  check_shapes(g, in, out, "aggregate_mean_forward");
  aggregate_tiled(g, AggregatorKind::kMean, /*backward=*/false, in, out,
                  threads);
}

void aggregate_mean_backward(const graph::CsrGraph& g,
                             const tensor::Matrix& d_out, tensor::Matrix& d_in,
                             int threads) {
  // Parallel over u (gradient destinations): the graph is undirected, so
  // N(u) gives exactly the v's whose forward aggregation read u.
  check_shapes(g, d_out, d_in, "aggregate_mean_backward");
  aggregate_tiled(g, AggregatorKind::kMean, /*backward=*/true, d_out, d_in,
                  threads);
}

namespace reference {

void aggregate_mean_forward(const graph::CsrGraph& g, const tensor::Matrix& in,
                            tensor::Matrix& out) {
  check_shapes(g, in, out, "reference::aggregate_mean_forward");
  const std::size_t f = in.cols();
  for (graph::Vid v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t j = 0; j < f; ++j) {
      double s = 0.0;
      for (const graph::Vid u : nbrs) s += in(u, j);
      out(v, j) = nbrs.empty()
                      ? 0.0f
                      : static_cast<float>(s / static_cast<double>(nbrs.size()));
    }
  }
}

void aggregate_mean_backward(const graph::CsrGraph& g,
                             const tensor::Matrix& d_out,
                             tensor::Matrix& d_in) {
  check_shapes(g, d_out, d_in, "reference::aggregate_mean_backward");
  const std::size_t f = d_out.cols();
  for (graph::Vid u = 0; u < g.num_vertices(); ++u) {
    for (std::size_t j = 0; j < f; ++j) {
      double s = 0.0;
      for (const graph::Vid v : g.neighbors(u)) {
        s += static_cast<double>(d_out(v, j)) / static_cast<double>(g.degree(v));
      }
      d_in(u, j) = static_cast<float>(s);
    }
  }
}

void aggregate_forward(const graph::CsrGraph& g, AggregatorKind kind,
                       const tensor::Matrix& in, tensor::Matrix& out) {
  check_shapes(g, in, out, "reference::aggregate_forward");
  const std::size_t f = in.cols();
  for (graph::Vid v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t j = 0; j < f; ++j) {
      double s = 0.0;
      for (const graph::Vid u : nbrs) {
        double w = 1.0;
        if (kind == AggregatorKind::kMean) {
          w = 1.0 / static_cast<double>(nbrs.size());
        } else if (kind == AggregatorKind::kSymmetric) {
          w = 1.0 / std::sqrt(static_cast<double>(nbrs.size()) *
                              static_cast<double>(g.degree(u)));
        }
        s += w * in(u, j);
      }
      out(v, j) = static_cast<float>(s);
    }
  }
}

void aggregate_backward(const graph::CsrGraph& g, AggregatorKind kind,
                        const tensor::Matrix& d_out, tensor::Matrix& d_in) {
  check_shapes(g, d_out, d_in, "reference::aggregate_backward");
  const std::size_t f = d_out.cols();
  for (graph::Vid u = 0; u < g.num_vertices(); ++u) {
    for (std::size_t j = 0; j < f; ++j) {
      double s = 0.0;
      for (const graph::Vid v : g.neighbors(u)) {
        double w = 1.0;
        if (kind == AggregatorKind::kMean) {
          w = 1.0 / static_cast<double>(g.degree(v));
        } else if (kind == AggregatorKind::kSymmetric) {
          w = 1.0 / std::sqrt(static_cast<double>(g.degree(v)) *
                              static_cast<double>(g.degree(u)));
        }
        s += w * d_out(v, j);
      }
      d_in(u, j) = static_cast<float>(s);
    }
  }
}

}  // namespace reference

}  // namespace gsgcn::propagation
