#pragma once
// Compressed vertex-feature store with a hot-vertex fp32 cache and an
// optional mmap-backed on-disk layout.
//
// Sampled-GCN training is gather-bound: every subgraph pulls a few
// thousand feature rows out of a |V|×f matrix, and at fp32 that traffic
// dwarfs the GEMMs (Serafini & Guan, PAPERS.md). The store attacks the
// bytes three ways, all behind one `gather(rows, out)` call so the
// trainer and the serving engine stay codec-agnostic:
//
//   1. Codecs — fp32 passthrough, fp16, bf16, int8 (per-column affine
//      scale/zero-point). Rows are widened to fp32 *during* the gather
//      (src/tensor/codec.*); a decompressed matrix never exists.
//   2. Hot-vertex cache — the first K vertices of a caller-supplied hot
//      order (typically graph::degree_order) are kept as exact fp32
//      widened rows; a cache hit is a straight memcpy, no decode. K is
//      sized by cache_mb at construction and never changes, so cache
//      contents are a pure function of (payload, order, size): residency
//      cannot depend on thread scheduling, and gathers stay bit-identical
//      for ANY cache size and thread count.
//   3. mmap backing — `write_file` emits a CRC-framed header (util/frame)
//      + per-column scales + row-major payload; `open_mmap` maps it
//      read-only so feature files larger than RAM train out-of-core,
//      with `prefetch()` issuing madvise(WILLNEED) hints from the async
//      pool's lookahead.
//
// Thread safety: gather/prefetch/to_dense are const and safe to call
// concurrently; the store holds no mutable state. Traffic is accounted
// in the process-wide `featstore.*` counters (obs/metrics.hpp): rows,
// cache_hits, cache_misses, bytes_moved, prefetch_calls, prefetch_bytes.
// Hit/miss tallies are computed per call and added once.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/matrix.hpp"

namespace gsgcn::data {

/// On-disk / in-RAM element encoding of the feature payload.
enum class FeatureDtype : std::uint8_t {
  kF32 = 0,
  kF16 = 1,
  kBf16 = 2,
  kI8 = 3,
};

/// "fp32" / "fp16" / "bf16" / "int8".
const char* feature_dtype_name(FeatureDtype d);
/// Inverse of feature_dtype_name; throws std::invalid_argument on junk.
FeatureDtype parse_feature_dtype(const std::string& name);
/// Payload bytes per value (4 / 2 / 2 / 1).
std::size_t feature_dtype_bytes(FeatureDtype d);

struct FeatureStoreOptions {
  FeatureDtype dtype = FeatureDtype::kF32;
  /// Hot-vertex fp32 cache budget; 0 disables the cache.
  std::size_t cache_mb = 0;
  /// open_mmap only: CRC-check the full payload at open (one sequential
  /// read of the file). The framed header is always verified.
  bool verify_payload = false;
};

class FeatureStore {
 public:
  // Special members live in the .cpp: the Mapping member is an
  // incomplete type here.
  FeatureStore();
  ~FeatureStore();
  FeatureStore(FeatureStore&&) noexcept;
  FeatureStore& operator=(FeatureStore&&) noexcept;
  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// Quantize `features` into an owned payload. `hot_order` ranks
  /// vertices for cache residency (e.g. graph::degree_order); the first
  /// rows that fit in opts.cache_mb are admitted. Empty order = row ids
  /// ascending. `scale_rows` (int8 only) names the rows whose column
  /// min/max set the per-column scales, e.g. the training split, so no
  /// other row's statistics shape what those rows decode to; rows
  /// outside the range saturate. Empty = every row.
  static FeatureStore build(const tensor::Matrix& features,
                            const FeatureStoreOptions& opts,
                            std::span<const graph::Vid> hot_order = {},
                            std::span<const graph::Vid> scale_rows = {});

  /// Zero-copy fp32 passthrough over an existing matrix, which must
  /// outlive the store. gather() matches tensor::gather_rows exactly.
  static FeatureStore view(const tensor::Matrix& features);

  /// Quantize and write the on-disk layout (atomic: tmp file + rename).
  static void write_file(const std::string& path,
                         const tensor::Matrix& features, FeatureDtype dtype);

  /// Map a write_file product read-only. opts.dtype is ignored (the file
  /// header decides); cache/verify options apply. Throws
  /// std::runtime_error on truncation/corruption.
  static FeatureStore open_mmap(const std::string& path,
                                const FeatureStoreOptions& opts,
                                std::span<const graph::Vid> hot_order = {});

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  FeatureDtype dtype() const { return dtype_; }
  /// Payload bytes per value for the roofline gather work model.
  std::size_t value_bytes() const { return feature_dtype_bytes(dtype_); }
  bool mmapped() const { return map_ != nullptr; }
  std::size_t cache_rows() const { return cache_.rows(); }

  /// out[i] = widen(payload row indices[i]); out must be indices.size()
  /// × cols(). Bit-identical for any thread count / cache size. Throws
  /// std::out_of_range (naming the index) before touching out.
  /// `featstore.bytes_moved` counts payload bytes read + fp32 bytes
  /// written (hits read fp32 from the cache instead of payload).
  void gather(std::span<const std::uint32_t> indices, tensor::Matrix& out,
              int threads = 0) const;

  /// madvise(WILLNEED) the payload pages behind these rows (mmap stores
  /// only; no-op otherwise). Purely a hint — never changes results.
  void prefetch(std::span<const std::uint32_t> indices) const;

  /// Widen the whole store (tests / small-graph serving fallback).
  tensor::Matrix to_dense(int threads = 0) const;

 private:
  struct Mapping;  // owns the fd + mapped range

  /// Decode payload row r (no cache consultation) into out[0, cols_).
  void decode_row(std::size_t r, float* out) const;
  void build_cache(std::size_t cache_mb, std::span<const graph::Vid> order);
  static FeatureStore encode(const tensor::Matrix& features,
                             FeatureDtype dtype,
                             std::span<const graph::Vid> scale_rows = {});

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  FeatureDtype dtype_ = FeatureDtype::kF32;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t row_bytes_ = 0;

  // Payload: exactly one of owned_ (build), view-backed (view), or map_
  // (open_mmap) provides the bytes behind payload_.
  util::AlignedBuffer<std::uint8_t> owned_;
  const std::uint8_t* payload_ = nullptr;
  std::unique_ptr<Mapping> map_;

  // int8 per-column dequant parameters; bias_[j] = -zp_[j] * scale_[j].
  std::vector<float> scale_;
  std::vector<float> zp_;
  std::vector<float> bias_;

  // Hot cache: cache_.row(slot_of_[v]) is the exact widened row v.
  tensor::Matrix cache_;
  std::vector<std::uint32_t> slot_of_;
};

}  // namespace gsgcn::data
