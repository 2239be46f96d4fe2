// Tensor library tests: Matrix semantics, GEMM kernels against the
// triple-loop reference (parameterized shape sweep), elementwise ops.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace gsgcn::tensor {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return Matrix::gaussian(r, c, 1.0f, rng);
}

TEST(Matrix, ZeroInitialized) {
  const Matrix m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, DeepCopy) {
  Matrix a = random_matrix(4, 5, 1);
  Matrix b = a;
  b(0, 0) += 1.0f;
  EXPECT_NE(a(0, 0), b(0, 0));
  EXPECT_EQ(Matrix::max_abs_diff(a, a), 0.0f);
}

TEST(Matrix, MoveLeavesSourceEmpty) {
  Matrix a = random_matrix(4, 5, 2);
  Matrix b = std::move(a);
  EXPECT_EQ(b.rows(), 4u);
  EXPECT_EQ(a.size(), 0u);
}

TEST(Matrix, MaxAbsDiffShapeMismatchIsInf) {
  EXPECT_TRUE(std::isinf(Matrix::max_abs_diff(Matrix(2, 2), Matrix(2, 3))));
}

TEST(Matrix, GlorotWithinBound) {
  util::Xoshiro256 rng(3);
  const Matrix m = Matrix::glorot(64, 64, rng);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), bound);
  }
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(2, 2);
  m(0, 0) = 3.0f;
  m(1, 1) = 4.0f;
  EXPECT_FLOAT_EQ(m.frobenius_norm(), 5.0f);
}

// ---- GEMM: parameterized shape sweep vs reference ----

using GemmShape = std::tuple<int, int, int>;  // M, K, N

class GemmSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmSweep, NnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 10);
  const Matrix b = random_matrix(k, n, 11);
  Matrix c(m, n), ref(m, n);
  gemm_nn(a, b, c);
  reference::gemm_nn(a, b, ref);
  EXPECT_LT(Matrix::max_abs_diff(c, ref), 1e-3f * static_cast<float>(k));
}

TEST_P(GemmSweep, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(k, m, 12);  // used transposed
  const Matrix b = random_matrix(k, n, 13);
  Matrix c(m, n), ref(m, n);
  gemm_tn(a, b, c);
  reference::gemm_tn(a, b, ref);
  EXPECT_LT(Matrix::max_abs_diff(c, ref), 1e-3f * static_cast<float>(k));
}

TEST_P(GemmSweep, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 14);
  const Matrix b = random_matrix(n, k, 15);  // used transposed
  Matrix c(m, n), ref(m, n);
  gemm_nt(a, b, c);
  reference::gemm_nt(a, b, ref);
  EXPECT_LT(Matrix::max_abs_diff(c, ref), 1e-3f * static_cast<float>(k));
}

TEST_P(GemmSweep, MultithreadedMatchesSingle) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 16);
  const Matrix b = random_matrix(k, n, 17);
  Matrix c1(m, n), c4(m, n);
  gemm_nn(a, b, c1, 1.0f, 0.0f, 1);
  gemm_nn(a, b, c4, 1.0f, 0.0f, 4);
  EXPECT_EQ(Matrix::max_abs_diff(c1, c4), 0.0f);  // identical fp order
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                      GemmShape{8, 8, 8}, GemmShape{17, 33, 9},
                      GemmShape{64, 50, 121}, GemmShape{100, 256, 31},
                      GemmShape{5, 1, 5}, GemmShape{1, 128, 1}));

TEST(Gemm, AlphaBetaSemantics) {
  const Matrix a = random_matrix(4, 6, 20);
  const Matrix b = random_matrix(6, 5, 21);
  Matrix c = random_matrix(4, 5, 22);
  Matrix expect = c;
  Matrix ab(4, 5);
  reference::gemm_nn(a, b, ab);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect.data()[i] = 2.0f * ab.data()[i] + 0.5f * expect.data()[i];
  }
  gemm_nn(a, b, c, 2.0f, 0.5f);
  EXPECT_LT(Matrix::max_abs_diff(c, expect), 1e-3f);
}

TEST(Gemm, BetaZeroIgnoresGarbage) {
  const Matrix a = random_matrix(3, 3, 23);
  const Matrix b = random_matrix(3, 3, 24);
  Matrix c(3, 3);
  c.fill(std::numeric_limits<float>::quiet_NaN());
  gemm_nn(a, b, c, 1.0f, 0.0f);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_FALSE(std::isnan(c.data()[i]));
  }
}

// ---- GEMM property sweep: every (m, k, n) from an odd-shape set, all
// three orientations, several alpha/beta combos and thread counts, all
// against the triple-loop reference. The shape set is chosen to exercise
// every packing edge case of the blocked kernel: sub-tile (< Mr, < Nr),
// exact-tile (8, 16, 64), one-past-tile (9, 17, 65) and near-block sizes.

constexpr int kOddSizes[] = {1, 5, 7, 8, 9, 16, 17, 63, 64, 65};

TEST(GemmProperty, OddShapeSweepAllOrientations) {
  const Matrix pool_a = random_matrix(65, 65, 50);
  const Matrix pool_b = random_matrix(65, 65, 51);
  auto take = [](const Matrix& pool, int r, int c) {
    Matrix m(r, c);
    for (int i = 0; i < r; ++i) {
      for (int j = 0; j < c; ++j) {
        m(i, j) = pool(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      }
    }
    return m;
  };
  for (const int m : kOddSizes) {
    for (const int k : kOddSizes) {
      for (const int n : kOddSizes) {
        const float tol = 1e-3f * static_cast<float>(k);
        {
          const Matrix a = take(pool_a, m, k), b = take(pool_b, k, n);
          Matrix c(m, n), ref(m, n);
          gemm_nn(a, b, c, 2.0f, 0.0f, 4);
          reference::gemm_nn(a, b, ref, 2.0f, 0.0f);
          ASSERT_LT(Matrix::max_abs_diff(c, ref), tol)
              << "nn " << m << "x" << k << "x" << n;
        }
        {
          const Matrix a = take(pool_a, k, m), b = take(pool_b, k, n);
          Matrix c(m, n), ref(m, n);
          gemm_tn(a, b, c, 1.0f, 0.0f, 4);
          reference::gemm_tn(a, b, ref);
          ASSERT_LT(Matrix::max_abs_diff(c, ref), tol)
              << "tn " << m << "x" << k << "x" << n;
        }
        {
          const Matrix a = take(pool_a, m, k), b = take(pool_b, n, k);
          Matrix c(m, n), ref(m, n);
          gemm_nt(a, b, c, 1.0f, 0.0f, 4);
          reference::gemm_nt(a, b, ref);
          ASSERT_LT(Matrix::max_abs_diff(c, ref), tol)
              << "nt " << m << "x" << k << "x" << n;
        }
      }
    }
  }
}

TEST(GemmProperty, AlphaBetaThreadCombos) {
  constexpr float kAlphas[] = {1.0f, 2.0f, -0.5f};
  constexpr float kBetas[] = {0.0f, 1.0f, 0.25f};
  constexpr int kThreads[] = {1, 2, 4, 8};
  // 97 rows × 300 cols of K cross both the Mc=96 and Kc=256 block edges.
  const Matrix a = random_matrix(97, 300, 52);
  const Matrix b = random_matrix(300, 33, 53);
  const Matrix c0 = random_matrix(97, 33, 54);
  for (const float alpha : kAlphas) {
    for (const float beta : kBetas) {
      Matrix ref = c0;
      reference::gemm_nn(a, b, ref, alpha, beta);
      Matrix first;
      for (const int threads : kThreads) {
        Matrix c = c0;
        gemm_nn(a, b, c, alpha, beta, threads);
        ASSERT_LT(Matrix::max_abs_diff(c, ref), 0.3f)
            << "alpha=" << alpha << " beta=" << beta << " p=" << threads;
        if (threads == 1) {
          first = c;
        } else {
          // Bit-identical across thread counts, not just close.
          ASSERT_EQ(Matrix::max_abs_diff(c, first), 0.0f)
              << "alpha=" << alpha << " beta=" << beta << " p=" << threads;
        }
      }
    }
  }
}

TEST(GemmProperty, TnNtBetaAccumulate) {
  const Matrix a = random_matrix(70, 19, 55);  // k=70 rows, m=19 (transposed)
  const Matrix b = random_matrix(70, 23, 56);
  Matrix c = random_matrix(19, 23, 57);
  Matrix ref = c;
  gemm_tn(a, b, c, 1.5f, 0.75f, 3);
  reference::gemm_tn(a, b, ref, 1.5f, 0.75f);
  EXPECT_LT(Matrix::max_abs_diff(c, ref), 0.1f);

  const Matrix x = random_matrix(21, 40, 58);
  const Matrix y = random_matrix(17, 40, 59);
  Matrix d = random_matrix(21, 17, 60);
  Matrix dref = d;
  gemm_nt(x, y, d, -1.0f, 2.0f, 3);
  reference::gemm_nt(x, y, dref, -1.0f, 2.0f);
  EXPECT_LT(Matrix::max_abs_diff(d, dref), 0.1f);
}

// ---- Register tiles and the strip split: every tile and every thread
// count must produce the same bits, because the K blocking alone fixes
// each element's summation order.

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

enum class Orient { kNN, kTN, kNT };

/// Operands of one orientation at (m, k, n): a, b and a C to accumulate
/// into, cut from fixed random pools.
struct GemmCase {
  Orient orient;
  Matrix a, b, c0;
  kernel::Operand op_a() const {
    return {a.data(), a.cols(), orient == Orient::kTN};
  }
  kernel::Operand op_b() const {
    return {b.data(), b.cols(), orient == Orient::kNT};
  }
};

GemmCase make_case(Orient o, std::size_t m, std::size_t k, std::size_t n) {
  GemmCase g;
  g.orient = o;
  g.a = o == Orient::kTN ? random_matrix(k, m, 70 + m)
                         : random_matrix(m, k, 70 + m);
  g.b = o == Orient::kNT ? random_matrix(n, k, 90 + n)
                         : random_matrix(k, n, 90 + n);
  g.c0 = random_matrix(m, n, 110);
  return g;
}

const char* orient_name(Orient o) {
  return o == Orient::kNN ? "nn" : o == Orient::kTN ? "tn" : "nt";
}

#ifdef GSGCN_AVX2
TEST(GemmKernels, Avx512MatchesAvx2BitForBit) {
  if (!kernel::avx512_usable()) {
    GTEST_SKIP() << "CPU or OS lacks AVX-512F";
  }
  // (0.7, 0.3): beta·C is inexact, so an edge-tile store that rounded
  // beta·C before adding would differ from the fused vector store.
  constexpr float kAlphaBeta[][2] = {
      {1.0f, 0.0f}, {1.0f, 1.0f}, {2.0f, 0.5f}, {0.7f, 0.3f}};
  for (const Orient o : {Orient::kNN, Orient::kTN, Orient::kNT}) {
    for (const int mi : kOddSizes) {
      for (const int ki : kOddSizes) {
        for (const int ni : kOddSizes) {
          const auto m = static_cast<std::size_t>(mi);
          const auto k = static_cast<std::size_t>(ki);
          const auto n = static_cast<std::size_t>(ni);
          const GemmCase g = make_case(o, m, k, n);
          for (const auto& ab : kAlphaBeta) {
            for (const Epilogue e : {Epilogue::kNone, Epilogue::kRelu}) {
              Matrix c2 = g.c0, c5 = g.c0;
              kernel::gemm_avx2(g.op_a(), g.op_b(), c2, m, n, k, ab[0], ab[1],
                                e, 3);
              kernel::gemm_avx512(g.op_a(), g.op_b(), c5, m, n, k, ab[0],
                                  ab[1], e, 3);
              ASSERT_TRUE(same_bits(c2, c5))
                  << orient_name(o) << " " << m << "x" << k << "x" << n
                  << " alpha=" << ab[0] << " beta=" << ab[1]
                  << " relu=" << (e == Epilogue::kRelu);
            }
          }
        }
      }
    }
  }
}
#endif

TEST(GemmProperty, StripSplitBitIdenticalAcrossThreads) {
  // k = 300 crosses the Kc = 256 block edge, so the beta = 1 accumulation
  // of the second K block runs on every strip.
  constexpr std::size_t kK = 300;
  constexpr std::size_t kN = 37;
  std::vector<std::pair<std::string, kernel::GemmFn>> entries = {
      {"dispatched", kernel::packed_gemm}};
#ifdef GSGCN_AVX2
  entries.emplace_back("avx2", kernel::gemm_avx2);
  if (kernel::avx512_usable()) {
    entries.emplace_back("avx512", kernel::gemm_avx512);
  }
#endif
  for (const auto& [name, gemm] : entries) {
    for (const Orient o : {Orient::kNN, Orient::kTN, Orient::kNT}) {
      for (const std::size_t m : {1, 5, 7, 13, 64, 128, 200}) {
        const GemmCase g = make_case(o, m, kK, kN);
        Matrix first;
        for (const int threads : {1, 2, 3, 4}) {
          Matrix c = g.c0;
          gemm(g.op_a(), g.op_b(), c, m, kN, kK, 1.5f, 0.5f, Epilogue::kRelu,
               threads);
          if (threads == 1) {
            first = c;
          } else {
            ASSERT_TRUE(same_bits(c, first))
                << name << " " << orient_name(o) << " m=" << m
                << " p=" << threads;
          }
        }
      }
    }
  }
}

// ---- Strided views: writing GEMM outputs into column slices of a wide
// matrix must be bit-for-bit identical to GEMM-into-dense + concat_cols
// (this is the layer's zero-copy concat path).

TEST(GemmView, ColsSliceOutputMatchesConcatBitForBit) {
  const std::size_t n = 37, fin = 29, fo = 21;
  const Matrix h = random_matrix(n, fin, 70);
  const Matrix w1 = random_matrix(fin, fo, 71);
  const Matrix w2 = random_matrix(fin, fo, 72);

  Matrix c1(n, fo), c2(n, fo), cat(n, 2 * fo);
  gemm_nn(h, w1, c1);
  gemm_nn(h, w2, c2);
  concat_cols(c1, c2, cat);

  Matrix wide(n, 2 * fo);
  gemm_nn(h, w1, MatrixView::cols_slice(wide, 0, fo));
  gemm_nn(h, w2, MatrixView::cols_slice(wide, fo, fo));
  EXPECT_EQ(Matrix::max_abs_diff(cat, wide), 0.0f);
}

TEST(GemmView, ColsSliceOperandsMatchSplitBitForBit) {
  // Backward-pass shape: consume column slices of a wide gradient as TN/NT
  // operands and compare against operating on split-out dense halves.
  const std::size_t n = 41, fin = 13, fo = 11;
  const Matrix h = random_matrix(n, fin, 73);
  const Matrix w = random_matrix(fin, fo, 74);
  const Matrix d_wide = random_matrix(n, 2 * fo, 75);
  Matrix d_half(n, fo), other(n, fo);
  split_cols(d_wide, d_half, other);

  Matrix dw_dense(fin, fo), dw_view(fin, fo);
  gemm_tn(h, d_half, dw_dense);
  gemm_tn(h, ConstMatrixView::cols_slice(d_wide, 0, fo), dw_view);
  EXPECT_EQ(Matrix::max_abs_diff(dw_dense, dw_view), 0.0f);

  Matrix dh_dense(n, fin), dh_view(n, fin);
  gemm_nt(d_half, w, dh_dense);  // d · Wᵀ — w used transposed
  gemm_nt(ConstMatrixView::cols_slice(d_wide, 0, fo), w, dh_view);
  EXPECT_EQ(Matrix::max_abs_diff(dh_dense, dh_view), 0.0f);
}

TEST(GemmView, LdMustCoverCols) {
  Matrix m(4, 8);
  EXPECT_NO_THROW(MatrixView::cols_slice(m, 2, 6));
}

// ---- Fused ReLU epilogue ----

TEST(GemmEpilogue, ReluMatchesSeparateRelu) {
  // k = 300 spans two Kc=256 blocks: the clamp must apply only after the
  // full K sum, not per block.
  const Matrix a = random_matrix(50, 300, 80);
  const Matrix b = random_matrix(300, 40, 81);
  Matrix fused(50, 40), plain(50, 40), clamped(50, 40);
  gemm_nn(a, b, fused, 1.0f, 0.0f, 0, Epilogue::kRelu);
  gemm_nn(a, b, plain);
  relu_forward(plain, clamped);
  EXPECT_EQ(Matrix::max_abs_diff(fused, clamped), 0.0f);
}

TEST(GemmEpilogue, ReluWithBetaZeroK) {
  // k == 0 degenerates to the epilogue-only path: C = relu(beta·C).
  const Matrix a(5, 0), b(0, 7);
  Matrix c = random_matrix(5, 7, 82);
  Matrix expect = c;
  gemm_nn(a, b, c, 1.0f, -1.0f, 0, Epilogue::kRelu);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const float v = -expect.data()[i];
    expect.data()[i] = v > 0.0f ? v : 0.0f;
  }
  EXPECT_EQ(Matrix::max_abs_diff(c, expect), 0.0f);
}

TEST(Gemm, ShapeMismatchThrows) {
  const Matrix a(3, 4), b(5, 6);
  Matrix c(3, 6);
  EXPECT_THROW(gemm_nn(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemm_tn(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemm_nt(a, b, c), std::invalid_argument);
}

// ---- elementwise ops ----

TEST(Ops, ReluForwardBackward) {
  Matrix x(2, 3);
  x(0, 0) = -1.0f;
  x(0, 1) = 2.0f;
  x(0, 2) = 0.0f;
  x(1, 0) = 3.0f;
  x(1, 1) = -0.5f;
  x(1, 2) = 1.0f;
  Matrix y(2, 3);
  relu_forward(x, y);
  EXPECT_EQ(y(0, 0), 0.0f);
  EXPECT_EQ(y(0, 1), 2.0f);
  EXPECT_EQ(y(0, 2), 0.0f);

  Matrix dy(2, 3);
  dy.fill(1.0f);
  Matrix dx(2, 3);
  relu_backward(x, dy, dx);
  EXPECT_EQ(dx(0, 0), 0.0f);
  EXPECT_EQ(dx(0, 1), 1.0f);
  EXPECT_EQ(dx(0, 2), 0.0f);  // subgradient at 0 chosen as 0
  EXPECT_EQ(dx(1, 0), 1.0f);
}

TEST(Ops, ConcatSplitRoundTrip) {
  const Matrix a = random_matrix(5, 3, 30);
  const Matrix b = random_matrix(5, 4, 31);
  Matrix cat(5, 7);
  concat_cols(a, b, cat);
  EXPECT_EQ(cat(2, 0), a(2, 0));
  EXPECT_EQ(cat(2, 3), b(2, 0));
  Matrix a2(5, 3), b2(5, 4);
  split_cols(cat, a2, b2);
  EXPECT_EQ(Matrix::max_abs_diff(a, a2), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(b, b2), 0.0f);
}

TEST(Ops, ConcatShapeMismatchThrows) {
  Matrix a(5, 3), b(4, 4), out(5, 7);
  EXPECT_THROW(concat_cols(a, b, out), std::invalid_argument);
}

TEST(Ops, AddScaledAndScale) {
  Matrix x(2, 2), y(2, 2);
  x.fill(1.0f);
  y.fill(2.0f);
  add_scaled(x, y, 0.5f);
  EXPECT_EQ(x(0, 0), 2.0f);
  scale_inplace(x, 2.0f);
  EXPECT_EQ(x(1, 1), 4.0f);
}

TEST(Ops, GatherRows) {
  const Matrix src = random_matrix(10, 4, 32);
  const std::vector<std::uint32_t> idx = {7, 0, 7, 3};
  Matrix out(4, 4);
  gather_rows(src, idx, out);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(out(0, j), src(7, j));
    EXPECT_EQ(out(1, j), src(0, j));
    EXPECT_EQ(out(2, j), src(7, j));
    EXPECT_EQ(out(3, j), src(3, j));
  }
}

TEST(Ops, GatherRowsShapeMismatchThrows) {
  const Matrix src(10, 4);
  const std::vector<std::uint32_t> idx = {1, 2};
  Matrix out(3, 4);
  EXPECT_THROW(gather_rows(src, idx, out), std::invalid_argument);
}

TEST(Ops, BiasRowsAndGrad) {
  Matrix x(3, 2);
  const std::vector<float> bias = {1.0f, -2.0f};
  add_bias_rows(x, bias);
  EXPECT_EQ(x(0, 0), 1.0f);
  EXPECT_EQ(x(2, 1), -2.0f);

  Matrix dy(3, 2);
  dy.fill(1.0f);
  std::vector<float> dbias(2, 99.0f);
  bias_grad(dy, dbias);
  EXPECT_EQ(dbias[0], 3.0f);
  EXPECT_EQ(dbias[1], 3.0f);
}

TEST(Ops, HadamardInplace) {
  Matrix x = random_matrix(9, 7, 33);
  const Matrix y = random_matrix(9, 7, 34);
  Matrix expect = x;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect.data()[i] *= y.data()[i];
  }
  hadamard_inplace(x, y, 3);
  EXPECT_EQ(Matrix::max_abs_diff(x, expect), 0.0f);
}

TEST(Ops, DropoutForwardMaskValuesAndRate) {
  const float rate = 0.4f;
  const Matrix x = random_matrix(200, 64, 35);
  Matrix mask(200, 64), out(200, 64);
  dropout_forward(x, mask, out, rate, 1234);
  const float scale = 1.0f / (1.0f - rate);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    const float m = mask.data()[i];
    ASSERT_TRUE(m == 0.0f || m == scale);
    EXPECT_EQ(out.data()[i], m * x.data()[i]);
    kept += m != 0.0f;
  }
  const double frac = static_cast<double>(kept) / mask.size();
  EXPECT_NEAR(frac, 1.0 - rate, 0.02);
}

TEST(Ops, DropoutForwardDeterministicAcrossThreadCounts) {
  const Matrix x = random_matrix(101, 37, 36);
  Matrix m1(101, 37), o1(101, 37);
  dropout_forward(x, m1, o1, 0.5f, 99, 1);
  for (const int threads : {2, 4, 8}) {
    Matrix mp(101, 37), op(101, 37);
    dropout_forward(x, mp, op, 0.5f, 99, threads);
    ASSERT_EQ(Matrix::max_abs_diff(m1, mp), 0.0f) << "p=" << threads;
    ASSERT_EQ(Matrix::max_abs_diff(o1, op), 0.0f) << "p=" << threads;
  }
}

TEST(Ops, DropoutForwardSeedChangesMask) {
  const Matrix x = random_matrix(50, 20, 37);
  Matrix ma(50, 20), mb(50, 20), out(50, 20);
  dropout_forward(x, ma, out, 0.5f, 1);
  dropout_forward(x, mb, out, 0.5f, 2);
  EXPECT_GT(Matrix::max_abs_diff(ma, mb), 0.0f);
}

TEST(Ops, DropoutForwardInPlaceAliasing) {
  Matrix x = random_matrix(30, 16, 38);
  const Matrix orig = x;
  Matrix mask(30, 16), expect(30, 16);
  dropout_forward(x, mask, expect, 0.3f, 7);
  Matrix mask2(30, 16);
  dropout_forward(x, mask2, x, 0.3f, 7);  // out aliases x
  EXPECT_EQ(Matrix::max_abs_diff(mask, mask2), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(x, expect), 0.0f);
  EXPECT_GT(Matrix::max_abs_diff(x, orig), 0.0f);
}

TEST(Ops, DropoutForwardBadRateThrows) {
  const Matrix x(2, 2);
  Matrix mask(2, 2), out(2, 2);
  EXPECT_THROW(dropout_forward(x, mask, out, 1.0f, 0),
               std::invalid_argument);
  EXPECT_THROW(dropout_forward(x, mask, out, -0.1f, 0),
               std::invalid_argument);
}

TEST(Ops, L2NormalizeRows) {
  Matrix x(2, 2);
  x(0, 0) = 3.0f;
  x(0, 1) = 4.0f;
  // second row all zero: must stay zero (no NaN)
  l2_normalize_rows(x);
  EXPECT_FLOAT_EQ(x(0, 0), 0.6f);
  EXPECT_FLOAT_EQ(x(0, 1), 0.8f);
  EXPECT_EQ(x(1, 0), 0.0f);
  EXPECT_EQ(x(1, 1), 0.0f);
}

}  // namespace
}  // namespace gsgcn::tensor
