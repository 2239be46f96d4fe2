#pragma once
// Dense matrix multiplication — the "weight application" kernel.
//
// The paper offloads this to MKL cblas_dgemm; here it is implemented
// directly as a cache-blocked, packed GEMM in the BLIS mold: a register
// micro-kernel computes an Mr×Nr tile of C entirely in FMA accumulators,
// operands are repacked into contiguous micro-panels (per-thread reusable
// workspaces) so the inner loop streams packed memory only, and Mc/Kc/Nc
// blocking keeps the A block and the active B panel cache-resident. Three
// orientations cover everything the GCN's forward/backward needs:
//
//   NN:  C = A·B        (forward weight application, H · W)
//   TN:  C = Aᵀ·B       (weight gradients, Hᵀ · dOut)
//   NT:  C = A·Bᵀ       (input gradients, dOut · Wᵀ)
//
// All kernels compute C = alpha·op(A)op(B) + beta·C, optionally fusing a
// ReLU into the final store (Epilogue::kRelu) so the GCN layer never
// re-streams its activations just to clamp them. Operands are strided
// views: the layer points the self/neigh GEMMs at the two halves of its
// concat buffer, which deletes the concat/split copies entirely.
// `threads` ≤ 0 means "use the current OpenMP max" (so callers can sweep
// thread counts for the Figure-3C bench without global state).

#include "tensor/matrix.hpp"

namespace gsgcn::tensor {

/// Operation fused into the GEMM's C-store. kRelu applies
/// max(0, alpha·op(A)op(B) + beta·C) on the final K-block's store — the
/// activations never make a second trip through memory.
enum class Epilogue { kNone, kRelu };

void gemm_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             float alpha = 1.0f, float beta = 0.0f, int threads = 0,
             Epilogue epilogue = Epilogue::kNone);

void gemm_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             float alpha = 1.0f, float beta = 0.0f, int threads = 0,
             Epilogue epilogue = Epilogue::kNone);

void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             float alpha = 1.0f, float beta = 0.0f, int threads = 0,
             Epilogue epilogue = Epilogue::kNone);

/// The register tile the three kernels above run, chosen once per process
/// from the build and the CPU: "avx512-12x32" (AVX-512F usable),
/// "avx2-6x16" (GSGCN_AVX2 build) or "scalar". Results are bit-identical
/// between the two vector tiles.
const char* gemm_kernel_name();

/// Peak single-precision flops per core cycle of that kernel's ISA, the
/// default of obs::MachineInfo::peak_flops_per_cycle.
double gemm_peak_flops_per_cycle();

/// Triple-loop reference implementations (no SIMD, no threading) used by
/// the tests to validate the optimized kernels bit-for-bit-ish (tolerance
/// covers FMA contraction differences).
namespace reference {
void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha = 1.0f,
             float beta = 0.0f);
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha = 1.0f,
             float beta = 0.0f);
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha = 1.0f,
             float beta = 0.0f);
}  // namespace reference

}  // namespace gsgcn::tensor
