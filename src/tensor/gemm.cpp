#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "obs/trace.hpp"
#include "tensor/gemm_kernels.hpp"
#include "util/parallel.hpp"

#ifdef GSGCN_AVX2
#include <immintrin.h>
#endif

namespace gsgcn::tensor {

namespace {

void check_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_nn: shape mismatch " + a.shape_str() +
                                " * " + b.shape_str() + " -> " + c.shape_str());
  }
}

void check_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  if (a.rows() != b.rows() || c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_tn: shape mismatch " + a.shape_str() +
                                "^T * " + b.shape_str() + " -> " + c.shape_str());
  }
}

void check_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  if (a.cols() != b.cols() || c.rows() != a.rows() || c.cols() != b.rows()) {
    throw std::invalid_argument("gemm_nt: shape mismatch " + a.shape_str() +
                                " * " + b.shape_str() + "^T -> " + c.shape_str());
  }
}

}  // namespace

void gemm_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta, int threads, Epilogue epilogue) {
  check_nn(a, b, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  GSGCN_TRACE_SPAN_ID("gemm/nn", 2 * m * n * k);  // args.v = flops
  kernel::packed_gemm({a.data(), a.ld(), false}, {b.data(), b.ld(), false}, c, m,
                      n, k, alpha, beta, epilogue, threads);
}

void gemm_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta, int threads, Epilogue epilogue) {
  check_tn(a, b, c);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  GSGCN_TRACE_SPAN_ID("gemm/tn", 2 * m * n * k);
  kernel::packed_gemm({a.data(), a.ld(), true}, {b.data(), b.ld(), false}, c, m,
                      n, k, alpha, beta, epilogue, threads);
}

void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta, int threads, Epilogue epilogue) {
  check_nt(a, b, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  GSGCN_TRACE_SPAN_ID("gemm/nt", 2 * m * n * k);
  kernel::packed_gemm({a.data(), a.ld(), false}, {b.data(), b.ld(), true}, c, m,
                      n, k, alpha, beta, epilogue, threads);
}

// ---------------------------------------------------------------------------
// Legacy kernels: the pre-packing implementation (rank-1 axpy updates for
// NN/TN, dot products for NT). Retained verbatim as the measured baseline
// of the packed-vs-legacy bench comparison.
// ---------------------------------------------------------------------------

namespace legacy {

namespace {

constexpr std::size_t kBlockK = 256;  // K-tile: keeps ~kBlockK B-rows warm

inline void scale_row(float* c, std::size_t n, float beta) {
  if (beta == 0.0f) {
    for (std::size_t j = 0; j < n; ++j) c[j] = 0.0f;
  } else if (beta != 1.0f) {
    for (std::size_t j = 0; j < n; ++j) c[j] *= beta;
  }
}

/// c[0..n) += s * b[0..n)   (axpy — the inner kernel of NN and TN)
inline void axpy(float* c, const float* b, std::size_t n, float s) {
#ifdef GSGCN_AVX2
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vb = _mm256_loadu_ps(b + j);
    const __m256 vc = _mm256_loadu_ps(c + j);
    _mm256_storeu_ps(c + j, _mm256_fmadd_ps(vs, vb, vc));
  }
  for (; j < n; ++j) c[j] += s * b[j];
#else
  for (std::size_t j = 0; j < n; ++j) c[j] += s * b[j];
#endif
}

/// dot(a[0..n), b[0..n))   (the inner kernel of NT)
inline float dot(const float* a, const float* b, std::size_t n) {
#ifdef GSGCN_AVX2
  __m256 acc = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j), acc);
  }
  // Horizontal sum of acc.
  __m128 lo = _mm256_castps256_ps128(acc);
  __m128 hi = _mm256_extractf128_ps(acc, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  float s = _mm_cvtss_f32(lo);
  for (; j < n; ++j) s += a[j] * b[j];
  return s;
#else
  float s = 0.0f;
  for (std::size_t j = 0; j < n; ++j) s += a[j] * b[j];
  return s;
#endif
}

}  // namespace

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta, int threads) {
  check_nn(a, b, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  util::parallel_for(
      static_cast<std::int64_t>(m), threads, [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        float* ci = c.row(i);
        scale_row(ci, n, beta);
        for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
          const std::size_t k1 = std::min(k, k0 + kBlockK);
          const float* ai = a.row(i);
          for (std::size_t kk = k0; kk < k1; ++kk) {
            const float s = alpha * ai[kk];
            if (s != 0.0f) axpy(ci, b.row(kk), n, s);
          }
        }
      });
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta, int threads) {
  check_tn(a, b, c);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  util::parallel_for(
      static_cast<std::int64_t>(m), threads, [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        float* ci = c.row(i);
        scale_row(ci, n, beta);
        for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
          const std::size_t k1 = std::min(k, k0 + kBlockK);
          for (std::size_t kk = k0; kk < k1; ++kk) {
            const float s = alpha * a(kk, i);
            if (s != 0.0f) axpy(ci, b.row(kk), n, s);
          }
        }
      });
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta, int threads) {
  check_nt(a, b, c);
  const std::size_t k = a.cols(), n = b.rows();
  (void)n;
  util::parallel_for(
      static_cast<std::int64_t>(a.rows()), threads, [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        float* ci = c.row(i);
        const float* ai = a.row(i);
        for (std::size_t j = 0; j < b.rows(); ++j) {
          const float d = alpha * dot(ai, b.row(j), k);
          ci[j] = beta == 0.0f ? d : beta * ci[j] + d;
        }
      });
}

}  // namespace legacy

namespace reference {

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  check_nn(a, b, c);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        s += static_cast<double>(a(i, kk)) * b(kk, j);
      }
      // beta == 0 must never read C: the destination may be uninitialized
      // (freshly reset buffers), which sanitizers rightly flag.
      const float scaled = alpha * static_cast<float>(s);
      c(i, j) = beta == 0.0f ? scaled : scaled + beta * c(i, j);
    }
  }
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  check_tn(a, b, c);
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < a.rows(); ++kk) {
        s += static_cast<double>(a(kk, i)) * b(kk, j);
      }
      const float scaled = alpha * static_cast<float>(s);
      c(i, j) = beta == 0.0f ? scaled : scaled + beta * c(i, j);
    }
  }
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  check_nt(a, b, c);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        s += static_cast<double>(a(i, kk)) * b(j, kk);
      }
      const float scaled = alpha * static_cast<float>(s);
      c(i, j) = beta == 0.0f ? scaled : scaled + beta * c(i, j);
    }
  }
}

}  // namespace reference

}  // namespace gsgcn::tensor
