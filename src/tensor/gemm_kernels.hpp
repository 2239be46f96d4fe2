#pragma once
// Internal interface of the packed GEMM (not part of the public API; the
// public entry points are tensor/gemm.hpp). gemm.cpp calls packed_gemm();
// the tests call the per-ISA entry points directly to prove that they agree
// bit for bit.
//
// Every entry point computes C = alpha·op(A)·op(B) + beta·C over the same
// Kc = 256 K blocks: each C element gets one FMA chain per K block, in k
// order, then the epilogue v = alpha·acc, v = fma(beta, C, v), optional
// ReLU. The register tile only decides which elements are computed
// together, never the arithmetic, so they differ from each other
// (and across thread counts) only in speed.

#include <cstddef>

#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace gsgcn::tensor::kernel {

/// A GEMM operand as the kernel sees it: op(X)(r, c) with op ∈ {id, ᵀ}
/// folded into the index map. ld is the distance between stored rows of
/// the underlying buffer, so strided views fall out for free.
struct Operand {
  const float* p;
  std::size_t ld;
  bool trans;
};

/// The signature every entry point below shares.
using GemmFn = void (*)(Operand a, Operand b, MatrixView c, std::size_t m,
                        std::size_t n, std::size_t k, float alpha, float beta,
                        Epilogue epilogue, int threads);

/// C (m×n) = alpha·op(A) (m×k) · op(B) (k×n) + beta·C on the micro-kernel
/// chosen once per process (see gemm_kernel_name()).
void packed_gemm(Operand a, Operand b, MatrixView c, std::size_t m,
                 std::size_t n, std::size_t k, float alpha, float beta,
                 Epilogue epilogue, int threads);

#ifdef GSGCN_AVX2
/// True when the CPU implements AVX-512F (cpuid) and the OS saves the
/// opmask and zmm register state (XCR0, read with xgetbv). Probed once.
bool avx512_usable();

/// The 6×16 AVX2 tile, and the 12×32 AVX-512 tile. The latter may
/// only run when avx512_usable().
void gemm_avx2(Operand a, Operand b, MatrixView c, std::size_t m,
               std::size_t n, std::size_t k, float alpha, float beta,
               Epilogue epilogue, int threads);
void gemm_avx512(Operand a, Operand b, MatrixView c, std::size_t m,
                 std::size_t n, std::size_t k, float alpha, float beta,
                 Epilogue epilogue, int threads);
#endif

}  // namespace gsgcn::tensor::kernel
