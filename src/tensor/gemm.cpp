#include "tensor/gemm.hpp"

#include <cstddef>
#include <stdexcept>

#include "obs/trace.hpp"
#include "tensor/gemm_kernels.hpp"

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
