#include "tensor/gemm_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/aligned_buffer.hpp"
#include "util/parallel.hpp"

#ifdef GSGCN_AVX2
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace gsgcn::tensor {

namespace kernel {

namespace {

// ---------------------------------------------------------------------------
// Blocking parameters (floats), shared by every register tile.
//
//   Kc      K-block: one packed B strip plus one packed A strip stay
//           L1-resident under the micro-kernel (AVX2: 16 + 6 KiB; AVX-512:
//           32 + 12 KiB). Kc alone fixes the summation order: every C
//           element gets one FMA chain per K block.
//   Mc      M-chunk: the packed A block (Mc·Kc·4 = 96 KiB) targets L2.
//   Nc      N-block: bounds each thread's packed B panel (Kc·Nc·4 = 1 MiB).
// ---------------------------------------------------------------------------
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 96;
constexpr std::size_t kNc = 1024;

/// Per-thread packing workspaces. thread_local so steady-state training
/// does no allocation (OpenMP reuses its workers); under the TSan
/// std::thread backend each fresh team member allocates once per region,
/// which is the price of exact fork/join visibility, not a correctness
/// problem. The B panel grows to the widest panel a thread has packed
/// (at most Kc·Nc) rather than taking Kc·Nc up front: every thread holds
/// one, and the model's panels are far narrower.
float* thread_a_panel() {
  static thread_local util::AlignedBuffer<float> buf;
  if (buf.size() < kMc * kKc) buf.reset(kMc * kKc);
  return buf.data();
}

float* thread_b_panel(std::size_t floats) {
  static thread_local util::AlignedBuffer<float> buf;
  if (buf.size() < floats) buf.reset(floats);
  return buf.data();
}

/// Pack op(A)[i0 .. i0+mc, k0 .. k0+kc) into Mr-row strips, k-major inside
/// each strip: ap[strip][kk*Mr + r]. Rows past mc are zero-padded so the
/// micro-kernel always runs full Mr tiles (the pad rows compute zeros that
/// are never stored).
template <std::size_t Mr>
void pack_a(float* ap, Operand a, std::size_t i0, std::size_t k0,
            std::size_t mc, std::size_t kc) {
  for (std::size_t s = 0; s < mc; s += Mr) {
    const std::size_t mr = std::min(Mr, mc - s);
    if (!a.trans) {
      for (std::size_t r = 0; r < mr; ++r) {
        const float* src = a.p + (i0 + s + r) * a.ld + k0;
        for (std::size_t kk = 0; kk < kc; ++kk) ap[kk * Mr + r] = src[kk];
      }
    } else {
      // op(A)(i, kk) = A(kk, i): walk source rows so reads stay contiguous.
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const float* src = a.p + (k0 + kk) * a.ld + i0 + s;
        float* dst = ap + kk * Mr;
        for (std::size_t r = 0; r < mr; ++r) dst[r] = src[r];
      }
    }
    if (mr < Mr) {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        for (std::size_t r = mr; r < Mr; ++r) ap[kk * Mr + r] = 0.0f;
      }
    }
    ap += Mr * kc;
  }
}

/// Pack op(B)[k0 .. k0+kc, j0 .. j0+nc) into Nr-column strips, k-major:
/// bp[strip][kk*Nr + c], columns past nc zero-padded.
template <std::size_t Nr>
void pack_b(float* bp, Operand b, std::size_t k0, std::size_t j0,
            std::size_t kc, std::size_t nc) {
  for (std::size_t s = 0; s < nc; s += Nr) {
    const std::size_t nr = std::min(Nr, nc - s);
    if (!b.trans) {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const float* src = b.p + (k0 + kk) * b.ld + j0 + s;
        float* dst = bp + kk * Nr;
        for (std::size_t c = 0; c < nr; ++c) dst[c] = src[c];
        for (std::size_t c = nr; c < Nr; ++c) dst[c] = 0.0f;
      }
    } else {
      // op(B)(kk, j) = B(j, kk): each packed column is a contiguous B row.
      for (std::size_t c = 0; c < nr; ++c) {
        const float* src = b.p + (j0 + s + c) * b.ld + k0;
        for (std::size_t kk = 0; kk < kc; ++kk) bp[kk * Nr + c] = src[kk];
      }
      for (std::size_t c = nr; c < Nr; ++c) {
        for (std::size_t kk = 0; kk < kc; ++kk) bp[kk * Nr + c] = 0.0f;
      }
    }
    bp += Nr * kc;
  }
}

/// Scalar C store of an alpha-scaled tile (row stride ldt): the edge-tile
/// epilogue of every micro-kernel. beta·C + v is one fused multiply-add,
/// exactly as in the vector epilogues, so an element rounds the same
/// whether it lands in a full tile or an edge tile of any tile shape.
/// beta == 0 never reads C.
inline void store_tile(const float* tile, std::size_t ldt, float* c,
                       std::size_t ldc, std::size_t mr, std::size_t nr,
                       float beta, bool relu) {
  for (std::size_t r = 0; r < mr; ++r) {
    float* cr = c + r * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      float v = tile[r * ldt + j];
      if (beta != 0.0f) v = std::fma(beta, cr[j], v);
      if (relu) v = v > 0.0f ? v : 0.0f;
      cr[j] = v;
    }
  }
}

#ifdef GSGCN_AVX2

/// The AVX2 register tile: C[0..mr, 0..nr) (+)= alpha · Ap·Bp over kc
/// terms. 6×16 = twelve 8-lane FMA accumulators, plus two B loads and one
/// A broadcast: 15 of the 16 ymm registers. Full tiles store straight
/// from the accumulators (fusing beta and the optional ReLU); edge tiles
/// spill through a stack tile, so C rows/columns outside the matrix are
/// never touched.
struct Avx2Tile {
  static constexpr std::size_t kMr = 6;
  static constexpr std::size_t kNr = 16;

  static void micro_kernel(const float* ap, const float* bp, std::size_t kc,
                           float* c, std::size_t ldc, std::size_t mr,
                           std::size_t nr, float alpha, float beta,
                           bool relu) {
    // Twelve named accumulators (not arrays): GCC keeps an indexed __m256
    // array on the stack and spills every FMA result, which costs more
    // than half the kernel's throughput. Named locals register-allocate
    // cleanly.
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
    __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const __m256 b0 = _mm256_load_ps(bp + kk * kNr);
      const __m256 b1 = _mm256_load_ps(bp + kk * kNr + 8);
      const float* arow = ap + kk * kMr;
      __m256 av = _mm256_broadcast_ss(arow + 0);
      c00 = _mm256_fmadd_ps(av, b0, c00);
      c01 = _mm256_fmadd_ps(av, b1, c01);
      av = _mm256_broadcast_ss(arow + 1);
      c10 = _mm256_fmadd_ps(av, b0, c10);
      c11 = _mm256_fmadd_ps(av, b1, c11);
      av = _mm256_broadcast_ss(arow + 2);
      c20 = _mm256_fmadd_ps(av, b0, c20);
      c21 = _mm256_fmadd_ps(av, b1, c21);
      av = _mm256_broadcast_ss(arow + 3);
      c30 = _mm256_fmadd_ps(av, b0, c30);
      c31 = _mm256_fmadd_ps(av, b1, c31);
      av = _mm256_broadcast_ss(arow + 4);
      c40 = _mm256_fmadd_ps(av, b0, c40);
      c41 = _mm256_fmadd_ps(av, b1, c41);
      av = _mm256_broadcast_ss(arow + 5);
      c50 = _mm256_fmadd_ps(av, b0, c50);
      c51 = _mm256_fmadd_ps(av, b1, c51);
    }
    const __m256 acc0[kMr] = {c00, c10, c20, c30, c40, c50};
    const __m256 acc1[kMr] = {c01, c11, c21, c31, c41, c51};
    const __m256 valpha = _mm256_set1_ps(alpha);
    if (mr == kMr && nr == kNr) {
      const __m256 vbeta = _mm256_set1_ps(beta);
      const __m256 vzero = _mm256_setzero_ps();
      for (std::size_t r = 0; r < kMr; ++r) {
        float* cr = c + r * ldc;
        __m256 v0 = _mm256_mul_ps(acc0[r], valpha);
        __m256 v1 = _mm256_mul_ps(acc1[r], valpha);
        if (beta != 0.0f) {
          v0 = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(cr), v0);
          v1 = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(cr + 8), v1);
        }
        if (relu) {
          v0 = _mm256_max_ps(v0, vzero);
          v1 = _mm256_max_ps(v1, vzero);
        }
        _mm256_storeu_ps(cr, v0);
        _mm256_storeu_ps(cr + 8, v1);
      }
    } else {
      alignas(32) float tile[kMr * kNr];
      for (std::size_t r = 0; r < kMr; ++r) {
        _mm256_store_ps(tile + r * kNr, _mm256_mul_ps(acc0[r], valpha));
        _mm256_store_ps(tile + r * kNr + 8, _mm256_mul_ps(acc1[r], valpha));
      }
      store_tile(tile, kNr, c, ldc, mr, nr, beta, relu);
    }
  }
};

/// The AVX-512 register tile, 12×32: twenty-four 16-lane accumulators,
/// two B loads and one A broadcast, 27 of the 32 zmm registers. Same
/// structure and epilogue as Avx2Tile. Only this function is compiled for
/// AVX-512 (function-level target, internal linkage), so no AVX-512
/// instruction can reach the AVX2 path through a shared inline or
/// template symbol.
struct Avx512Tile {
  static constexpr std::size_t kMr = 12;
  static constexpr std::size_t kNr = 32;

  __attribute__((target("avx512f"))) static void micro_kernel(
      const float* ap, const float* bp, std::size_t kc, float* c,
      std::size_t ldc, std::size_t mr, std::size_t nr, float alpha,
      float beta, bool relu) {
    __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
    __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
    __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
    __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
    __m512 c40 = _mm512_setzero_ps(), c41 = _mm512_setzero_ps();
    __m512 c50 = _mm512_setzero_ps(), c51 = _mm512_setzero_ps();
    __m512 c60 = _mm512_setzero_ps(), c61 = _mm512_setzero_ps();
    __m512 c70 = _mm512_setzero_ps(), c71 = _mm512_setzero_ps();
    __m512 c80 = _mm512_setzero_ps(), c81 = _mm512_setzero_ps();
    __m512 c90 = _mm512_setzero_ps(), c91 = _mm512_setzero_ps();
    __m512 ca0 = _mm512_setzero_ps(), ca1 = _mm512_setzero_ps();
    __m512 cb0 = _mm512_setzero_ps(), cb1 = _mm512_setzero_ps();
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const __m512 b0 = _mm512_load_ps(bp + kk * kNr);
      const __m512 b1 = _mm512_load_ps(bp + kk * kNr + 16);
      const float* arow = ap + kk * kMr;
      __m512 av = _mm512_set1_ps(arow[0]);
      c00 = _mm512_fmadd_ps(av, b0, c00);
      c01 = _mm512_fmadd_ps(av, b1, c01);
      av = _mm512_set1_ps(arow[1]);
      c10 = _mm512_fmadd_ps(av, b0, c10);
      c11 = _mm512_fmadd_ps(av, b1, c11);
      av = _mm512_set1_ps(arow[2]);
      c20 = _mm512_fmadd_ps(av, b0, c20);
      c21 = _mm512_fmadd_ps(av, b1, c21);
      av = _mm512_set1_ps(arow[3]);
      c30 = _mm512_fmadd_ps(av, b0, c30);
      c31 = _mm512_fmadd_ps(av, b1, c31);
      av = _mm512_set1_ps(arow[4]);
      c40 = _mm512_fmadd_ps(av, b0, c40);
      c41 = _mm512_fmadd_ps(av, b1, c41);
      av = _mm512_set1_ps(arow[5]);
      c50 = _mm512_fmadd_ps(av, b0, c50);
      c51 = _mm512_fmadd_ps(av, b1, c51);
      av = _mm512_set1_ps(arow[6]);
      c60 = _mm512_fmadd_ps(av, b0, c60);
      c61 = _mm512_fmadd_ps(av, b1, c61);
      av = _mm512_set1_ps(arow[7]);
      c70 = _mm512_fmadd_ps(av, b0, c70);
      c71 = _mm512_fmadd_ps(av, b1, c71);
      av = _mm512_set1_ps(arow[8]);
      c80 = _mm512_fmadd_ps(av, b0, c80);
      c81 = _mm512_fmadd_ps(av, b1, c81);
      av = _mm512_set1_ps(arow[9]);
      c90 = _mm512_fmadd_ps(av, b0, c90);
      c91 = _mm512_fmadd_ps(av, b1, c91);
      av = _mm512_set1_ps(arow[10]);
      ca0 = _mm512_fmadd_ps(av, b0, ca0);
      ca1 = _mm512_fmadd_ps(av, b1, ca1);
      av = _mm512_set1_ps(arow[11]);
      cb0 = _mm512_fmadd_ps(av, b0, cb0);
      cb1 = _mm512_fmadd_ps(av, b1, cb1);
    }
    const __m512 acc0[kMr] = {c00, c10, c20, c30, c40, c50,
                              c60, c70, c80, c90, ca0, cb0};
    const __m512 acc1[kMr] = {c01, c11, c21, c31, c41, c51,
                              c61, c71, c81, c91, ca1, cb1};
    const __m512 valpha = _mm512_set1_ps(alpha);
    if (mr == kMr && nr == kNr) {
      const __m512 vbeta = _mm512_set1_ps(beta);
      const __m512 vzero = _mm512_setzero_ps();
      for (std::size_t r = 0; r < kMr; ++r) {
        float* cr = c + r * ldc;
        __m512 v0 = _mm512_mul_ps(acc0[r], valpha);
        __m512 v1 = _mm512_mul_ps(acc1[r], valpha);
        if (beta != 0.0f) {
          v0 = _mm512_fmadd_ps(vbeta, _mm512_loadu_ps(cr), v0);
          v1 = _mm512_fmadd_ps(vbeta, _mm512_loadu_ps(cr + 16), v1);
        }
        if (relu) {
          // maskz with every lane set is vmaxps itself; plain
          // _mm512_max_ps trips GCC 12's -Wmaybe-uninitialized in its
          // own header.
          v0 = _mm512_maskz_max_ps(0xFFFF, v0, vzero);
          v1 = _mm512_maskz_max_ps(0xFFFF, v1, vzero);
        }
        _mm512_storeu_ps(cr, v0);
        _mm512_storeu_ps(cr + 16, v1);
      }
    } else {
      alignas(64) float tile[kMr * kNr];
      for (std::size_t r = 0; r < kMr; ++r) {
        _mm512_store_ps(tile + r * kNr, _mm512_mul_ps(acc0[r], valpha));
        _mm512_store_ps(tile + r * kNr + 16, _mm512_mul_ps(acc1[r], valpha));
      }
      store_tile(tile, kNr, c, ldc, mr, nr, beta, relu);
    }
  }
};

#else  // !GSGCN_AVX2

/// Scalar fallback with the same packing, blocking, accumulation order
/// and epilogue; results differ from the vector tiles only where the
/// compiler does not contract a * b + acc into an FMA.
struct ScalarTile {
  static constexpr std::size_t kMr = 6;
  static constexpr std::size_t kNr = 16;

  static void micro_kernel(const float* ap, const float* bp, std::size_t kc,
                           float* c, std::size_t ldc, std::size_t mr,
                           std::size_t nr, float alpha, float beta,
                           bool relu) {
    float acc[kMr * kNr] = {};
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float* arow = ap + kk * kMr;
      const float* brow = bp + kk * kNr;
      for (std::size_t r = 0; r < kMr; ++r) {
        const float av = arow[r];
        for (std::size_t j = 0; j < kNr; ++j) acc[r * kNr + j] += av * brow[j];
      }
    }
    for (float& v : acc) v *= alpha;
    store_tile(acc, kNr, c, ldc, mr, nr, beta, relu);
  }
};

#endif  // GSGCN_AVX2

/// beta/epilogue-only path for k == 0 (C = beta·C, optionally clamped).
void scale_epilogue_only(MatrixView c, float beta, Epilogue epilogue,
                         int threads) {
  const std::size_t n = c.cols();
  util::parallel_for(
      static_cast<std::int64_t>(c.rows()), threads, [&](std::int64_t ii) {
        float* cr = c.row(static_cast<std::size_t>(ii));
        for (std::size_t j = 0; j < n; ++j) {
          float v = beta == 0.0f ? 0.0f : beta * cr[j];
          if (epilogue == Epilogue::kRelu) v = v > 0.0f ? v : 0.0f;
          cr[j] = v;
        }
      });
}

/// The blocked loop nest over one register tile, in one parallel region
/// per call. The ⌈m/Mr⌉ register-tile strips split into one contiguous
/// range per thread. Each thread packs every (jc, kc) B panel into its
/// own thread-local buffer (no shared panel, no barrier, no serial pack
/// between K blocks), then packs and computes its strips at most Mc rows
/// at a time. The per-element accumulation order never depends on the
/// thread count or on the strip→thread assignment, so results are
/// bit-identical from 1 thread to N.
template <class Tile>
void gemm_core(Operand a, Operand b, MatrixView c, std::size_t m,
               std::size_t n, std::size_t k, float alpha, float beta,
               Epilogue epilogue, int threads) {
  constexpr std::size_t kMr = Tile::kMr;
  constexpr std::size_t kNr = Tile::kNr;
  constexpr std::size_t kStripsPerChunk = kMc / kMr;
  static_assert(kMc % kMr == 0, "Mc must hold whole register-tile rows");
  static_assert(kNc % kNr == 0, "Nc must hold whole register-tile columns");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    scale_epilogue_only(c, beta, epilogue, threads);
    return;
  }
  float* const cdata = c.data();
  const std::size_t ldc = c.ld();
  const auto num_strips = static_cast<std::int64_t>((m + kMr - 1) / kMr);
  const std::size_t b_panel_floats =
      std::min(k, kKc) * ((std::min(n, kNc) + kNr - 1) / kNr * kNr);
  util::parallel_for_ranges(
      num_strips, threads, [&](std::int64_t s0, std::int64_t s1) {
        const auto strip_end = static_cast<std::size_t>(s1);
        float* ap = thread_a_panel();
        float* bp = thread_b_panel(b_panel_floats);
        for (std::size_t jc = 0; jc < n; jc += kNc) {
          const std::size_t nc = std::min(kNc, n - jc);
          for (std::size_t kc0 = 0; kc0 < k; kc0 += kKc) {
            const std::size_t kc = std::min(kKc, k - kc0);
            pack_b<kNr>(bp, b, kc0, jc, kc, nc);
            // First K-block applies the caller's beta; later blocks
            // accumulate.
            const float beta_eff = kc0 == 0 ? beta : 1.0f;
            // The ReLU clamp is only valid once the sum over K is complete.
            const bool relu = (kc0 + kKc >= k) && epilogue == Epilogue::kRelu;
            for (auto s = static_cast<std::size_t>(s0); s < strip_end;
                 s += kStripsPerChunk) {
              const std::size_t i0 = s * kMr;
              const std::size_t chunk_end =
                  std::min(s + kStripsPerChunk, strip_end);
              const std::size_t mc = std::min(chunk_end * kMr, m) - i0;
              pack_a<kMr>(ap, a, i0, kc0, mc, kc);
              for (std::size_t jr = 0; jr < nc; jr += kNr) {
                const float* bps = bp + (jr / kNr) * (kNr * kc);
                const std::size_t nr = std::min(kNr, nc - jr);
                for (std::size_t ir = 0; ir < mc; ir += kMr) {
                  const std::size_t mr = std::min(kMr, mc - ir);
                  Tile::micro_kernel(ap + (ir / kMr) * (kMr * kc), bps, kc,
                                     cdata + (i0 + ir) * ldc + jc + jr, ldc,
                                     mr, nr, alpha, beta_eff, relu);
                }
              }
            }
          }
        }
      });
}

struct Choice {
  GemmFn gemm;
  const char* name;
  double peak_flops_per_cycle;
};

/// Chosen once per process. Peaks are single-precision flops per core
/// cycle assuming two FMA ports: 2 × 16 lanes × 2 flops (AVX-512),
/// 2 × 8 × 2 (AVX2); the scalar build's SSE code has 4 lanes and no FMA.
const Choice& choice() {
#ifdef GSGCN_AVX2
  static const Choice c =
      avx512_usable() ? Choice{gemm_avx512, "avx512-12x32", 64.0}
                      : Choice{gemm_avx2, "avx2-6x16", 32.0};
#else
  static const Choice c{gemm_core<ScalarTile>, "scalar", 8.0};
#endif
  return c;
}

}  // namespace

#ifdef GSGCN_AVX2

bool avx512_usable() {
  static const bool usable = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    if ((ecx & bit_OSXSAVE) == 0) return false;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    if ((ebx & bit_AVX512F) == 0) return false;
    // XCR0 must enable SSE (bit 1), AVX (2), opmask (5), ZMM_Hi256 (6)
    // and Hi16_ZMM (7): otherwise the OS does not save the zmm state.
    unsigned xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    constexpr unsigned kZmmState = 0xE6;
    return (xcr0_lo & kZmmState) == kZmmState;
  }();
  return usable;
}

void gemm_avx2(Operand a, Operand b, MatrixView c, std::size_t m,
               std::size_t n, std::size_t k, float alpha, float beta,
               Epilogue epilogue, int threads) {
  gemm_core<Avx2Tile>(a, b, c, m, n, k, alpha, beta, epilogue, threads);
}

void gemm_avx512(Operand a, Operand b, MatrixView c, std::size_t m,
                 std::size_t n, std::size_t k, float alpha, float beta,
                 Epilogue epilogue, int threads) {
  gemm_core<Avx512Tile>(a, b, c, m, n, k, alpha, beta, epilogue, threads);
}

#endif  // GSGCN_AVX2

void packed_gemm(Operand a, Operand b, MatrixView c, std::size_t m,
                 std::size_t n, std::size_t k, float alpha, float beta,
                 Epilogue epilogue, int threads) {
  choice().gemm(a, b, c, m, n, k, alpha, beta, epilogue, threads);
}

}  // namespace kernel

const char* gemm_kernel_name() { return kernel::choice().name; }

double gemm_peak_flops_per_cycle() {
  return kernel::choice().peak_flops_per_cycle;
}

}  // namespace gsgcn::tensor
