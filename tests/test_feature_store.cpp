// FeatureStore + codec tests: codec round-trips (including an exhaustive
// sweep of every fp16 bit pattern), scalar-vs-SIMD bit identity, the
// int8 per-column error bound, gather == to_dense for every dtype,
// bit-identity across thread counts and cache sizes, out-of-range
// pre-scan behaviour, `featstore.*` counter accounting, the mmap on-disk
// round trip and its corruption rejection, and concurrent gathers bumping
// the shared counters (run under TSan via the `concurrency` label).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/feature_store.hpp"
#include "obs/metrics.hpp"
#include "tensor/codec.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace gsgcn::data {
namespace {

namespace fs = std::filesystem;
namespace codec = tensor::codec;

/// Current value of a process-wide featstore.* counter.
double counter(const std::string& name) {
  return obs::Registry::instance().scrape().counter(name);
}

std::uint32_t bits_of(float x) {
  std::uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

tensor::Matrix random_features(std::size_t rows, std::size_t cols,
                               std::uint64_t seed, float stddev = 2.0f) {
  util::Xoshiro256 rng(seed);
  return tensor::Matrix::gaussian(rows, cols, stddev, rng);
}

std::vector<std::uint32_t> random_indices(std::size_t n, std::size_t rows,
                                          std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> idx(n);
  for (auto& v : idx) v = static_cast<std::uint32_t>(rng.below(rows));
  return idx;
}

bool matrices_bit_identical(const tensor::Matrix& a, const tensor::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Dtype plumbing.
// ---------------------------------------------------------------------------

TEST(FeatureDtype, NamesRoundTrip) {
  for (FeatureDtype d : {FeatureDtype::kF32, FeatureDtype::kF16,
                         FeatureDtype::kBf16, FeatureDtype::kI8}) {
    EXPECT_EQ(parse_feature_dtype(feature_dtype_name(d)), d);
  }
  EXPECT_EQ(feature_dtype_bytes(FeatureDtype::kF32), 4u);
  EXPECT_EQ(feature_dtype_bytes(FeatureDtype::kF16), 2u);
  EXPECT_EQ(feature_dtype_bytes(FeatureDtype::kBf16), 2u);
  EXPECT_EQ(feature_dtype_bytes(FeatureDtype::kI8), 1u);
  EXPECT_THROW(parse_feature_dtype("float64"), std::invalid_argument);
  EXPECT_THROW(parse_feature_dtype(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// fp16 codec: exhaustive over all 65536 bit patterns.
// ---------------------------------------------------------------------------

TEST(CodecF16, ExhaustiveWidenNarrowRoundTrip) {
  for (std::uint32_t h = 0; h < 0x10000u; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    const float wide = codec::f16_to_f32(half);
    const bool is_nan = (h & 0x7C00u) == 0x7C00u && (h & 0x03FFu) != 0u;
    if (is_nan) {
      // NaNs widen to NaNs and narrow back to NaNs; the narrow sets the
      // quiet bit, so the payload need not round-trip bit-exactly.
      EXPECT_TRUE(std::isnan(wide)) << "half 0x" << std::hex << h;
      const std::uint16_t back = codec::f32_to_f16(wide);
      EXPECT_EQ(back & 0x7C00u, 0x7C00u) << "half 0x" << std::hex << h;
      EXPECT_NE(back & 0x03FFu, 0u) << "half 0x" << std::hex << h;
    } else {
      // Every non-NaN half is exactly representable in fp32, so the
      // round trip must reproduce the original bits (zeros, subnormals,
      // infinities included).
      EXPECT_EQ(codec::f32_to_f16(wide), half) << "half 0x" << std::hex << h;
    }
  }
}

TEST(CodecF16, ExhaustiveScalarMatchesDispatched) {
  // One pass over every half via the row kernels: the F16C path (when
  // the CPU has it) must agree with the scalar reference bit-for-bit.
  std::vector<std::uint16_t> in(0x10000);
  for (std::uint32_t h = 0; h < 0x10000u; ++h) {
    in[h] = static_cast<std::uint16_t>(h);
  }
  std::vector<float> simd(in.size()), scalar(in.size());
  codec::widen_f16_row(in.data(), simd.data(), in.size());
  codec::widen_f16_row_scalar(in.data(), scalar.data(), in.size());
  EXPECT_EQ(std::memcmp(simd.data(), scalar.data(),
                        in.size() * sizeof(float)),
            0);
}

TEST(CodecF16, NarrowScalarMatchesDispatched) {
  util::Xoshiro256 rng(123);
  std::vector<float> in(4096 + 3);  // odd length exercises the tail
  for (auto& x : in) {
    x = (static_cast<float>(rng.below(1u << 20)) - (1u << 19)) / 512.0f;
  }
  in[0] = 0.0f;
  in[1] = -0.0f;
  in[2] = std::numeric_limits<float>::infinity();
  in[3] = std::numeric_limits<float>::quiet_NaN();
  in[4] = 1e-8f;   // subnormal half territory
  in[5] = 65504.0f;   // max finite half
  in[6] = 65520.0f;   // rounds to inf
  std::vector<std::uint16_t> simd(in.size()), scalar(in.size());
  codec::narrow_f16_row(in.data(), simd.data(), in.size());
  codec::narrow_f16_row_scalar(in.data(), scalar.data(), in.size());
  EXPECT_EQ(std::memcmp(simd.data(), scalar.data(),
                        in.size() * sizeof(std::uint16_t)),
            0);
}

// ---------------------------------------------------------------------------
// bf16 codec.
// ---------------------------------------------------------------------------

TEST(CodecBf16, WidenIsExactTopBits) {
  for (std::uint32_t h = 0; h < 0x10000u; ++h) {
    const bool is_nan = (h & 0x7F80u) == 0x7F80u && (h & 0x007Fu) != 0u;
    const float wide = codec::bf16_to_f32(static_cast<std::uint16_t>(h));
    EXPECT_EQ(bits_of(wide), h << 16);
    if (!is_nan) {
      EXPECT_EQ(codec::f32_to_bf16(wide), h);
    }
  }
}

TEST(CodecBf16, NarrowRoundsToNearestEven) {
  const auto f32_from_bits = [](std::uint32_t u) {
    float x;
    std::memcpy(&x, &u, sizeof(x));
    return x;
  };
  // 0x3F808000 sits exactly between bf16 neighbours 0x3F80 and 0x3F81:
  // the tie goes to the even mantissa (0x3F80).
  EXPECT_EQ(codec::f32_to_bf16(f32_from_bits(0x3F808000u)), 0x3F80u);
  // One ulp above the tie rounds up.
  EXPECT_EQ(codec::f32_to_bf16(f32_from_bits(0x3F808001u)), 0x3F81u);
  // A tie whose lower bf16 neighbour is odd rounds up to the even one.
  EXPECT_EQ(codec::f32_to_bf16(f32_from_bits(0x3F818000u)), 0x3F82u);
  // NaN stays NaN after truncation.
  const std::uint16_t nan_b =
      codec::f32_to_bf16(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(codec::bf16_to_f32(nan_b)));
}

// ---------------------------------------------------------------------------
// int8 codec and its accuracy bound.
// ---------------------------------------------------------------------------

TEST(CodecI8, WidenScalarMatchesDispatched) {
  util::Xoshiro256 rng(7);
  const std::size_t n = 1021;  // prime length → tail path
  std::vector<std::int8_t> q(n);
  std::vector<float> scale(n), bias(n), simd(n), scalar(n);
  for (std::size_t j = 0; j < n; ++j) {
    q[j] = static_cast<std::int8_t>(static_cast<int>(rng.below(256)) - 128);
    scale[j] = 0.001f + 0.01f * static_cast<float>(rng.below(1000));
    bias[j] = -scale[j] * static_cast<float>(static_cast<int>(rng.below(200)) - 100);
  }
  codec::widen_i8_row(q.data(), scale.data(), bias.data(), simd.data(), n);
  codec::widen_i8_row_scalar(q.data(), scale.data(), bias.data(),
                             scalar.data(), n);
  EXPECT_EQ(std::memcmp(simd.data(), scalar.data(), n * sizeof(float)), 0);
}

TEST(FeatureStoreI8, PerColumnErrorBoundedByHalfScale) {
  const std::size_t rows = 512, cols = 9;
  tensor::Matrix src = random_features(rows, cols, 31);
  // Give columns very different ranges so per-column scales matter.
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      src.row(i)[j] *= static_cast<float>(j * j + 1);
    }
  }
  FeatureStoreOptions opts;
  opts.dtype = FeatureDtype::kI8;
  const FeatureStore store = FeatureStore::build(src, opts);
  const tensor::Matrix deq = store.to_dense();

  // Recover each column's scale from the quantization grid: dequantized
  // values are (q - zp) * scale, so consecutive distinct values differ
  // by >= scale. Bound instead via the contract: |x - deq(x)| <= scale/2
  // (+ a whisker of float rounding slack) for every in-range value.
  for (std::size_t j = 0; j < cols; ++j) {
    float mn = src.row(0)[j], mx = mn;
    for (std::size_t i = 0; i < rows; ++i) {
      mn = std::min(mn, src.row(i)[j]);
      mx = std::max(mx, src.row(i)[j]);
    }
    const float scale = (mx - mn) / 255.0f;
    float max_err = 0.0f;
    for (std::size_t i = 0; i < rows; ++i) {
      max_err = std::max(max_err, std::fabs(src.row(i)[j] - deq.row(i)[j]));
    }
    EXPECT_LE(max_err, scale * 0.5f * (1.0f + 1e-4f) + 1e-7f)
        << "column " << j;
  }
}

TEST(FeatureStoreI8, ConstantColumnsAreExact) {
  tensor::Matrix src(16, 3);
  for (std::size_t i = 0; i < 16; ++i) {
    src.row(i)[0] = 0.0f;
    src.row(i)[1] = -3.5f;
    src.row(i)[2] = 42.0f;
  }
  FeatureStoreOptions opts;
  opts.dtype = FeatureDtype::kI8;
  const tensor::Matrix deq = FeatureStore::build(src, opts).to_dense();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(deq.row(i)[0], 0.0f);
    EXPECT_FLOAT_EQ(deq.row(i)[1], -3.5f);
    EXPECT_FLOAT_EQ(deq.row(i)[2], 42.0f);
  }
}

TEST(FeatureStoreI8, ScaleRowsMatchAStoreOverThoseRowsAlone) {
  // Scales from a row subset: those rows decode exactly as in a store
  // built over the subset's own matrix, whatever the other rows hold.
  const std::size_t rows = 300, cols = 13;
  tensor::Matrix src = random_features(rows, cols, 41);
  for (std::size_t i = 0; i < rows; i += 3) {
    for (std::size_t j = 0; j < cols; ++j) src.row(i)[j] *= 50.0f;  // outliers
  }
  std::vector<graph::Vid> keep;
  for (graph::Vid v = 1; v < rows; v += 3) keep.push_back(v);
  keep.push_back(2);  // order does not matter
  tensor::Matrix subset(keep.size(), cols);
  tensor::gather_rows(src, keep, subset);

  FeatureStoreOptions opts;
  opts.dtype = FeatureDtype::kI8;
  const FeatureStore full = FeatureStore::build(src, opts, {}, keep);
  const FeatureStore alone = FeatureStore::build(subset, opts);
  std::vector<std::uint32_t> local(keep.size());
  for (std::uint32_t i = 0; i < local.size(); ++i) local[i] = i;
  tensor::Matrix got(keep.size(), cols), want(keep.size(), cols);
  full.gather(keep, got);
  alone.gather(local, want);
  EXPECT_TRUE(matrices_bit_identical(got, want));

  // Without scale_rows the outliers widen every scale.
  const FeatureStore all_rows = FeatureStore::build(src, opts);
  all_rows.gather(keep, got);
  EXPECT_FALSE(matrices_bit_identical(got, want));

  const std::vector<graph::Vid> bad = {0, static_cast<graph::Vid>(rows)};
  EXPECT_THROW(FeatureStore::build(src, opts, {}, bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Gather semantics.
// ---------------------------------------------------------------------------

class FeatureStoreGatherTest
    : public ::testing::TestWithParam<FeatureDtype> {};

TEST_P(FeatureStoreGatherTest, GatherMatchesToDenseRows) {
  const std::size_t rows = 203, cols = 17;  // odd cols → SIMD tail paths
  const tensor::Matrix src = random_features(rows, cols, 5);
  FeatureStoreOptions opts;
  opts.dtype = GetParam();
  const FeatureStore store = FeatureStore::build(src, opts);
  const tensor::Matrix dense = store.to_dense();

  const auto idx = random_indices(97, rows, 11);  // duplicates likely
  tensor::Matrix out(idx.size(), cols);
  store.gather(idx, out);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(std::memcmp(out.row(i), dense.row(idx[i]),
                          cols * sizeof(float)),
              0)
        << "row " << i << " (source " << idx[i] << ")";
  }
}

TEST_P(FeatureStoreGatherTest, BitIdenticalAcrossThreadsAndCacheSizes) {
  const std::size_t rows = 301, cols = 23;
  const tensor::Matrix src = random_features(rows, cols, 13);
  const auto idx = random_indices(256, rows, 17);

  // Hot order: reversed ids, so cached rows are NOT the gathered prefix.
  std::vector<graph::Vid> hot(rows);
  for (std::size_t v = 0; v < rows; ++v) {
    hot[v] = static_cast<graph::Vid>(rows - 1 - v);
  }

  tensor::Matrix reference;
  for (const std::size_t cache_mb : {std::size_t{0}, std::size_t{1},
                                     std::size_t{64}}) {
    FeatureStoreOptions opts;
    opts.dtype = GetParam();
    opts.cache_mb = cache_mb;
    const FeatureStore store = FeatureStore::build(src, opts, hot);
    for (const int threads : {1, 2, 4}) {
      tensor::Matrix out(idx.size(), cols);
      store.gather(idx, out, threads);
      if (reference.rows() == 0) {
        reference = std::move(out);
      } else {
        EXPECT_TRUE(matrices_bit_identical(reference, out))
            << "cache_mb=" << cache_mb << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDtypes, FeatureStoreGatherTest,
                         ::testing::Values(FeatureDtype::kF32,
                                           FeatureDtype::kF16,
                                           FeatureDtype::kBf16,
                                           FeatureDtype::kI8),
                         [](const auto& info) {
                           return std::string(
                               feature_dtype_name(info.param)) +
                                  (info.param == FeatureDtype::kF32 ? "_fp32"
                                                                    : "");
                         });

TEST(FeatureStoreView, MatchesTensorGatherRowsExactly) {
  const std::size_t rows = 64, cols = 12;
  const tensor::Matrix src = random_features(rows, cols, 3);
  const FeatureStore store = FeatureStore::view(src);
  EXPECT_EQ(store.dtype(), FeatureDtype::kF32);
  EXPECT_EQ(store.cache_rows(), 0u);
  EXPECT_FALSE(store.mmapped());

  const auto idx = random_indices(40, rows, 9);
  tensor::Matrix via_store(idx.size(), cols);
  store.gather(idx, via_store);
  tensor::Matrix via_ops(idx.size(), cols);
  tensor::gather_rows(src, idx, via_ops);
  EXPECT_TRUE(matrices_bit_identical(via_store, via_ops));
}

TEST(FeatureStoreGather, OutOfRangeThrowsBeforeTouchingOutput) {
  const tensor::Matrix src = random_features(10, 4, 21);
  // Both gather code paths: uncached (batched kernels) and cached
  // (per-row hit/miss loop).
  for (const std::size_t cache_mb : {std::size_t{0}, std::size_t{1}}) {
    FeatureStoreOptions opts;
    opts.cache_mb = cache_mb;
    const FeatureStore store = FeatureStore::build(src, opts);
    const std::vector<std::uint32_t> idx = {1, 3, 10, 2};  // 10 == rows
    tensor::Matrix out(idx.size(), 4);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      for (std::size_t j = 0; j < 4; ++j) out.row(i)[j] = -77.0f;
    }
    try {
      store.gather(idx, out);
      FAIL() << "expected std::out_of_range (cache_mb=" << cache_mb << ")";
    } catch (const std::out_of_range& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("10"), std::string::npos) << msg;
      EXPECT_NE(msg.find("position 2"), std::string::npos) << msg;
    }
    for (std::size_t i = 0; i < idx.size(); ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_EQ(out.row(i)[j], -77.0f) << "output written before throw";
      }
    }
  }
}

TEST(FeatureStoreGather, ShapeMismatchThrows) {
  const tensor::Matrix src = random_features(8, 4, 2);
  const FeatureStore store = FeatureStore::view(src);
  const std::vector<std::uint32_t> idx = {0, 1};
  tensor::Matrix wrong_rows(3, 4), wrong_cols(2, 5);
  EXPECT_THROW(store.gather(idx, wrong_rows), std::invalid_argument);
  EXPECT_THROW(store.gather(idx, wrong_cols), std::invalid_argument);
}

TEST(FeatureStoreGather, EmptyIndicesIsANoOp) {
  const tensor::Matrix src = random_features(8, 4, 2);
  const FeatureStore store = FeatureStore::view(src);
  tensor::Matrix out(0, 4);
  const double rows_before = counter("featstore.rows");
  store.gather(std::span<const std::uint32_t>{}, out);
  EXPECT_EQ(counter("featstore.rows"), rows_before);
}

TEST(FeatureStoreCache, BadHotOrderThrows) {
  const tensor::Matrix src = random_features(8, 4, 2);
  FeatureStoreOptions opts;
  opts.cache_mb = 1;
  const std::vector<graph::Vid> bad = {2, 99};
  EXPECT_THROW(FeatureStore::build(src, opts, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Counter accounting.
// ---------------------------------------------------------------------------

TEST(FeatureStoreStatsTest, HitMissAndBytesAccounting) {
  const std::size_t rows = 100, cols = 8;
  const tensor::Matrix src = random_features(rows, cols, 4);
  FeatureStoreOptions opts;
  opts.dtype = FeatureDtype::kF16;
  opts.cache_mb = 1;  // 1 MB / 32 B per fp32 row → all 100 rows admitted
  std::vector<graph::Vid> hot;
  for (graph::Vid v = 0; v < 50; ++v) hot.push_back(v);  // only first 50
  const FeatureStore store = FeatureStore::build(src, opts, hot);
  EXPECT_EQ(store.cache_rows(), 50u);

  std::vector<std::uint32_t> idx;
  for (std::uint32_t i = 0; i < 100; ++i) idx.push_back(i);  // 50 hits
  tensor::Matrix out(idx.size(), cols);
  const double rows_before = counter("featstore.rows");
  const double hits_before = counter("featstore.cache_hits");
  const double misses_before = counter("featstore.cache_misses");
  const double bytes_before = counter("featstore.bytes_moved");
  store.gather(idx, out);

  EXPECT_EQ(counter("featstore.rows") - rows_before, 100.0);
  EXPECT_EQ(counter("featstore.cache_hits") - hits_before, 50.0);
  EXPECT_EQ(counter("featstore.cache_misses") - misses_before, 50.0);
  // Hits move fp32 both ways (cols*8); misses read the f16 payload and
  // write fp32 (cols*2 + cols*4).
  EXPECT_EQ(counter("featstore.bytes_moved") - bytes_before,
            static_cast<double>(50u * cols * 8 + 50u * (cols * 2 + cols * 4)));
}

// ---------------------------------------------------------------------------
// On-disk layout: write_file / open_mmap.
// ---------------------------------------------------------------------------

class FeatureStoreFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("gsgcn_fstore_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

TEST_F(FeatureStoreFileTest, MmapGatherBitIdenticalToInRamStore) {
  const std::size_t rows = 157, cols = 19;
  const tensor::Matrix src = random_features(rows, cols, 23);
  for (FeatureDtype dtype : {FeatureDtype::kF32, FeatureDtype::kF16,
                             FeatureDtype::kBf16, FeatureDtype::kI8}) {
    const std::string file = path(feature_dtype_name(dtype));
    FeatureStore::write_file(file, src, dtype);

    FeatureStoreOptions opts;
    opts.dtype = dtype;  // ignored by open_mmap (header decides)
    opts.verify_payload = true;
    const FeatureStore mapped = FeatureStore::open_mmap(file, opts);
    EXPECT_TRUE(mapped.mmapped());
    EXPECT_EQ(mapped.rows(), rows);
    EXPECT_EQ(mapped.cols(), cols);
    EXPECT_EQ(mapped.dtype(), dtype);

    const FeatureStore in_ram = FeatureStore::build(src, opts);
    const auto idx = random_indices(64, rows, 3);
    tensor::Matrix a(idx.size(), cols), b(idx.size(), cols);
    mapped.gather(idx, a);
    in_ram.gather(idx, b);
    EXPECT_TRUE(matrices_bit_identical(a, b)) << feature_dtype_name(dtype);
  }
}

TEST_F(FeatureStoreFileTest, PrefetchCountsOnlyOnMappedStores) {
  const tensor::Matrix src = random_features(32, 8, 2);
  const std::string file = path("f16");
  FeatureStore::write_file(file, src, FeatureDtype::kF16);
  FeatureStoreOptions opts;
  const FeatureStore mapped = FeatureStore::open_mmap(file, opts);
  const std::vector<std::uint32_t> idx = {1, 2, 3, 30};
  double calls = counter("featstore.prefetch_calls");
  const double bytes = counter("featstore.prefetch_bytes");
  mapped.prefetch(idx);
  EXPECT_EQ(counter("featstore.prefetch_calls") - calls, 1.0);
  EXPECT_GT(counter("featstore.prefetch_bytes") - bytes, 0.0);

  const FeatureStore ram = FeatureStore::view(src);
  calls = counter("featstore.prefetch_calls");
  ram.prefetch(idx);
  EXPECT_EQ(counter("featstore.prefetch_calls"), calls);
}

TEST_F(FeatureStoreFileTest, TruncatedFileIsRejected) {
  const tensor::Matrix src = random_features(64, 8, 6);
  const std::string file = path("trunc");
  FeatureStore::write_file(file, src, FeatureDtype::kF16);
  const auto full = fs::file_size(file);
  fs::resize_file(file, full - 16);
  FeatureStoreOptions opts;
  EXPECT_THROW(FeatureStore::open_mmap(file, opts), std::runtime_error);
}

TEST_F(FeatureStoreFileTest, CorruptHeaderNamesFrameStatus) {
  const tensor::Matrix src = random_features(64, 8, 6);
  const std::string file = path("badmagic");
  FeatureStore::write_file(file, src, FeatureDtype::kI8);
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');  // clobber the frame magic
  }
  FeatureStoreOptions opts;
  try {
    FeatureStore::open_mmap(file, opts);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad_magic"), std::string::npos)
        << e.what();
  }
}

TEST_F(FeatureStoreFileTest, PayloadBitFlipCaughtByVerify) {
  const tensor::Matrix src = random_features(64, 8, 6);
  const std::string file = path("bitflip");
  FeatureStore::write_file(file, src, FeatureDtype::kF32);
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(file)) - 5);
    f.put('\x7f');
  }
  FeatureStoreOptions opts;
  opts.verify_payload = true;
  try {
    FeatureStore::open_mmap(file, opts);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << e.what();
  }
  // Without verify_payload the (possibly huge) payload is not scanned at
  // open — the framed header alone still validates.
  FeatureStoreOptions lazy;
  EXPECT_NO_THROW(FeatureStore::open_mmap(file, lazy));
}

TEST_F(FeatureStoreFileTest, MissingFileThrows) {
  FeatureStoreOptions opts;
  EXPECT_THROW(FeatureStore::open_mmap(path("nope"), opts),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Concurrency: parallel gathers bump the shared counters (TSan target).
// ---------------------------------------------------------------------------

TEST(FeatureStoreConcurrency, ParallelGathersAreRaceFreeAndDeterministic) {
  const std::size_t rows = 256, cols = 16;
  const tensor::Matrix src = random_features(rows, cols, 8);
  FeatureStoreOptions opts;
  opts.dtype = FeatureDtype::kF16;
  opts.cache_mb = 1;
  const FeatureStore store = FeatureStore::build(src, opts);

  tensor::Matrix expected(128, cols);
  const auto idx = random_indices(128, rows, 41);
  store.gather(idx, expected, 1);
  const double rows_before = counter("featstore.rows");
  const double hits_before = counter("featstore.cache_hits");
  const double misses_before = counter("featstore.cache_misses");

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> team;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&store, &idx, &expected, &mismatches, t] {
      tensor::Matrix out(idx.size(), expected.cols());
      for (int r = 0; r < kRounds; ++r) {
        store.gather(idx, out, 1);
        if (!matrices_bit_identical(out, expected)) ++mismatches[t];
        store.prefetch(idx);  // no-op (RAM store), but must be safe
      }
    });
  }
  for (auto& th : team) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);

  const double gathered = counter("featstore.rows") - rows_before;
  EXPECT_EQ(gathered, static_cast<double>(kThreads * kRounds * idx.size()));
  EXPECT_EQ(counter("featstore.cache_hits") - hits_before +
                counter("featstore.cache_misses") - misses_before,
            gathered);
}

}  // namespace
}  // namespace gsgcn::data
