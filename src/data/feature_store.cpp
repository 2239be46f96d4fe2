#include "data/feature_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "tensor/codec.hpp"
#include "util/crc32.hpp"
#include "util/frame.hpp"
#include "util/parallel.hpp"

namespace gsgcn::data {

namespace {

// On-disk envelope: one CRC-framed metadata frame (util/frame, magic
// "gsgnfts1"), zero padding up to a 64-byte-aligned payload offset, then
// the raw row-major payload whose own CRC lives in the metadata. The
// metadata frame is always verified at open; the (potentially huge)
// payload is verified on demand (opts.verify_payload) so opening a 100 GB
// file stays O(metadata).
constexpr util::FrameSpec kFeatFrame{
    /*magic=*/0x6773676e66747331ULL,  // "gsgnfts1"
    /*version=*/1,
    /*max_payload=*/1ull << 24};  // metadata only: 40 bytes + 8*cols

constexpr std::size_t kPayloadAlign = 64;

void put_u32(std::string& s, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  s.append(b, 4);
}

void put_u64(std::string& s, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  s.append(b, 8);
}

std::uint32_t f32_bits_of(float x) {
  std::uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

class MetaReader {
 public:
  explicit MetaReader(const std::string& buf) : buf_(buf) {}
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  float f32() { return take<float>(); }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  template <typename T>
  T take() {
    if (pos_ + sizeof(T) > buf_.size()) {
      throw std::runtime_error("feature store: truncated metadata");
    }
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  const std::string& buf_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* feature_dtype_name(FeatureDtype d) {
  switch (d) {
    case FeatureDtype::kF32:
      return "fp32";
    case FeatureDtype::kF16:
      return "fp16";
    case FeatureDtype::kBf16:
      return "bf16";
    case FeatureDtype::kI8:
      return "int8";
  }
  return "?";
}

FeatureDtype parse_feature_dtype(const std::string& name) {
  if (name == "fp32" || name == "f32") return FeatureDtype::kF32;
  if (name == "fp16" || name == "f16") return FeatureDtype::kF16;
  if (name == "bf16") return FeatureDtype::kBf16;
  if (name == "int8" || name == "i8") return FeatureDtype::kI8;
  throw std::invalid_argument("unknown feature dtype '" + name +
                              "' (expected fp32|fp16|bf16|int8)");
}

std::size_t feature_dtype_bytes(FeatureDtype d) {
  switch (d) {
    case FeatureDtype::kF32:
      return 4;
    case FeatureDtype::kF16:
    case FeatureDtype::kBf16:
      return 2;
    case FeatureDtype::kI8:
      return 1;
  }
  return 4;
}

struct FeatureStore::Mapping {
  void* base = nullptr;
  std::size_t len = 0;
  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() {
    if (base != nullptr) ::munmap(base, len);
  }
};

FeatureStore::FeatureStore() = default;
FeatureStore::~FeatureStore() = default;
FeatureStore::FeatureStore(FeatureStore&&) noexcept = default;
FeatureStore& FeatureStore::operator=(FeatureStore&&) noexcept = default;

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

FeatureStore FeatureStore::encode(const tensor::Matrix& features,
                                  FeatureDtype dtype,
                                  std::span<const graph::Vid> scale_rows) {
  FeatureStore fs;
  fs.dtype_ = dtype;
  fs.rows_ = features.rows();
  fs.cols_ = features.cols();
  fs.row_bytes_ = fs.cols_ * feature_dtype_bytes(dtype);
  fs.owned_.reset(fs.rows_ * fs.row_bytes_);
  fs.payload_ = fs.owned_.data();
  // Ask for transparent huge pages before the first touch: gathers hit
  // the payload at random row addresses, and with 4 KiB pages the TLB
  // walk per row costs more than the row read itself (hardware prefetch
  // hints are dropped on TLB misses, too). A hint only — ignored where
  // unsupported, and never changes results.
  {
    // Container runtimes often launch processes with PR_SET_THP_DISABLE,
    // which turns MADV_HUGEPAGE into a silent no-op. Clearing the flag
    // (once) merely restores the system `madvise` THP policy for regions
    // we explicitly advise; it grants nothing the host forbids — where
    // THP is off system-wide the madvise below stays a no-op.
    static const bool thp_unblocked = [] {
#if defined(__linux__) && defined(PR_SET_THP_DISABLE)
      (void)::prctl(PR_SET_THP_DISABLE, 0, 0, 0, 0);
#endif
      return true;
    }();
    (void)thp_unblocked;
    static const auto kPage =
        static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const auto base = reinterpret_cast<std::uintptr_t>(fs.owned_.data());
    const std::uintptr_t lo = (base + kPage - 1) & ~(kPage - 1);
    const std::uintptr_t hi = (base + fs.rows_ * fs.row_bytes_) & ~(kPage - 1);
    if (hi > lo && hi - lo >= (std::uintptr_t{2} << 20)) {
      ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
    }
  }
  const std::size_t rows = fs.rows_, cols = fs.cols_;
  if (rows * cols == 0) {
    if (dtype == FeatureDtype::kI8) {
      fs.scale_.assign(cols, 1.0f);
      fs.zp_.assign(cols, 0.0f);
      fs.bias_.assign(cols, 0.0f);
    }
    return fs;
  }

  switch (dtype) {
    case FeatureDtype::kF32:
      std::memcpy(fs.owned_.data(), features.data(), rows * cols * 4);
      break;
    case FeatureDtype::kF16: {
      auto* out = reinterpret_cast<std::uint16_t*>(fs.owned_.data());
      util::parallel_for(static_cast<std::int64_t>(rows), 0,
                         [&features, out, cols](std::int64_t i) {
                           tensor::codec::narrow_f16_row(
                               features.row(static_cast<std::size_t>(i)),
                               out + static_cast<std::size_t>(i) * cols,
                               cols);
                         });
      break;
    }
    case FeatureDtype::kBf16: {
      auto* out = reinterpret_cast<std::uint16_t*>(fs.owned_.data());
      util::parallel_for(static_cast<std::int64_t>(rows), 0,
                         [&features, out, cols](std::int64_t i) {
                           tensor::codec::narrow_bf16_row(
                               features.row(static_cast<std::size_t>(i)),
                               out + static_cast<std::size_t>(i) * cols,
                               cols);
                         });
      break;
    }
    case FeatureDtype::kI8: {
      // Column min/max over a fixed block grid so the reduction order —
      // and therefore the scales — never depends on the thread count.
      const bool all_rows = scale_rows.empty();
      const std::size_t stat_rows = all_rows ? rows : scale_rows.size();
      for (const graph::Vid v : scale_rows) {
        if (v >= rows) {
          throw std::invalid_argument(
              "FeatureStore: scale_rows id " + std::to_string(v) +
              " out of range (store has " + std::to_string(rows) + " rows)");
        }
      }
      constexpr std::size_t kBlocks = 64;
      const std::size_t nblk = std::min(kBlocks, stat_rows);
      const std::size_t per = (stat_rows + nblk - 1) / nblk;
      std::vector<float> bmin(nblk * cols,
                              std::numeric_limits<float>::infinity());
      std::vector<float> bmax(nblk * cols,
                              -std::numeric_limits<float>::infinity());
      float* bminp = bmin.data();
      float* bmaxp = bmax.data();
      util::parallel_for(
          static_cast<std::int64_t>(nblk), 0,
          [&features, scale_rows, all_rows, bminp, bmaxp, per, cols,
           stat_rows](std::int64_t blk) {
            const std::size_t b = static_cast<std::size_t>(blk) * per;
            const std::size_t e = std::min(stat_rows, b + per);
            float* mn = bminp + static_cast<std::size_t>(blk) * cols;
            float* mx = bmaxp + static_cast<std::size_t>(blk) * cols;
            for (std::size_t i = b; i < e; ++i) {
              const float* r = features.row(all_rows ? i : scale_rows[i]);
              for (std::size_t j = 0; j < cols; ++j) {
                mn[j] = std::min(mn[j], r[j]);
                mx[j] = std::max(mx[j], r[j]);
              }
            }
          });
      fs.scale_.resize(cols);
      fs.zp_.resize(cols);
      fs.bias_.resize(cols);
      for (std::size_t j = 0; j < cols; ++j) {
        float mn = std::numeric_limits<float>::infinity();
        float mx = -std::numeric_limits<float>::infinity();
        for (std::size_t blk = 0; blk < nblk; ++blk) {
          mn = std::min(mn, bmin[blk * cols + j]);
          mx = std::max(mx, bmax[blk * cols + j]);
        }
        float scale, zp;
        if (mx > mn) {
          scale = (mx - mn) / 255.0f;
          zp = static_cast<float>(
              std::lrintf(-128.0f - mn / scale));
        } else if (mn != 0.0f) {
          // Constant nonzero column: q = ±127 reproduces it exactly up
          // to one rounding.
          scale = std::fabs(mn) / 127.0f;
          zp = 0.0f;
        } else {
          scale = 1.0f;
          zp = 0.0f;
        }
        fs.scale_[j] = scale;
        fs.zp_[j] = zp;
        fs.bias_[j] = -zp * scale;
      }
      auto* out = reinterpret_cast<std::int8_t*>(fs.owned_.data());
      const float* scalep = fs.scale_.data();
      const float* zpp = fs.zp_.data();
      util::parallel_for(static_cast<std::int64_t>(rows), 0,
                         [&features, out, scalep, zpp, cols](std::int64_t i) {
                           tensor::codec::quantize_i8_row(
                               features.row(static_cast<std::size_t>(i)),
                               scalep, zpp,
                               out + static_cast<std::size_t>(i) * cols,
                               cols);
                         });
      break;
    }
  }
  return fs;
}

FeatureStore FeatureStore::build(const tensor::Matrix& features,
                                 const FeatureStoreOptions& opts,
                                 std::span<const graph::Vid> hot_order,
                                 std::span<const graph::Vid> scale_rows) {
  FeatureStore fs = encode(features, opts.dtype, scale_rows);
  fs.build_cache(opts.cache_mb, hot_order);
  return fs;
}

FeatureStore FeatureStore::view(const tensor::Matrix& features) {
  FeatureStore fs;
  fs.dtype_ = FeatureDtype::kF32;
  fs.rows_ = features.rows();
  fs.cols_ = features.cols();
  fs.row_bytes_ = fs.cols_ * 4;
  fs.payload_ = reinterpret_cast<const std::uint8_t*>(features.data());
  return fs;
}

void FeatureStore::build_cache(std::size_t cache_mb,
                               std::span<const graph::Vid> hot_order) {
  if (cache_mb == 0 || rows_ == 0 || cols_ == 0) return;
  const std::size_t budget_rows = (cache_mb << 20) / (cols_ * 4);
  std::size_t want = std::min(rows_, budget_rows);
  if (want == 0) return;

  // Admission is decided here, once, from the supplied hot order — a pure
  // function of (order, cache size). Nothing about residency can depend
  // on gather timing or thread scheduling.  // det-safe: static admission
  slot_of_.assign(rows_, kNoSlot);
  std::vector<std::uint32_t> admitted;
  admitted.reserve(want);
  if (hot_order.empty()) {
    for (std::uint32_t v = 0; v < want; ++v) admitted.push_back(v);
  } else {
    for (const graph::Vid v : hot_order) {
      if (admitted.size() >= want) break;
      if (v >= rows_) {
        throw std::invalid_argument(
            "FeatureStore: hot_order id " + std::to_string(v) +
            " out of range (store has " + std::to_string(rows_) + " rows)");
      }
      if (slot_of_[v] != kNoSlot) continue;  // duplicate in the order
      slot_of_[v] = static_cast<std::uint32_t>(admitted.size());
      admitted.push_back(v);
    }
  }
  if (hot_order.empty()) {
    for (std::uint32_t v = 0; v < admitted.size(); ++v) slot_of_[v] = v;
  }

  cache_ = tensor::Matrix(admitted.size(), cols_);
  const std::uint32_t* ids = admitted.data();
  util::parallel_for(static_cast<std::int64_t>(admitted.size()), 0,
                     [this, ids](std::int64_t s) {
                       // The cache stores the exact widened row, so a hit
                       // returns the same bytes a decode would.
                       decode_row(ids[s],
                                  cache_.row(static_cast<std::size_t>(s)));
                     });
}

// ---------------------------------------------------------------------------
// Gather path.
// ---------------------------------------------------------------------------

void FeatureStore::decode_row(std::size_t r, float* out) const {
  const std::uint8_t* src = payload_ + r * row_bytes_;
  switch (dtype_) {
    case FeatureDtype::kF32:
      std::memcpy(out, src, row_bytes_);
      break;
    case FeatureDtype::kF16:
      tensor::codec::widen_f16_row(
          reinterpret_cast<const std::uint16_t*>(src), out, cols_);
      break;
    case FeatureDtype::kBf16:
      tensor::codec::widen_bf16_row(
          reinterpret_cast<const std::uint16_t*>(src), out, cols_);
      break;
    case FeatureDtype::kI8:
      tensor::codec::widen_i8_row(reinterpret_cast<const std::int8_t*>(src),
                                  scale_.data(), bias_.data(), out, cols_);
      break;
  }
}

void FeatureStore::gather(std::span<const std::uint32_t> indices,
                          tensor::Matrix& out, int threads) const {
  if (out.rows() != indices.size() || out.cols() != cols_) {
    throw std::invalid_argument("FeatureStore::gather: shape mismatch");
  }
  const std::size_t n = indices.size();
  // Serial pre-scan: bounds (throwing across a parallel region is UB) and
  // the hit tally, which is deterministic because admission is static.
  std::uint64_t hits = 0;
  const bool cached = !slot_of_.empty();
  if (cached) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = indices[i];
      if (r >= rows_) {
        throw std::out_of_range(
            "FeatureStore::gather: index " + std::to_string(r) +
            " at position " + std::to_string(i) + " out of range (store has " +
            std::to_string(rows_) + " rows)");
      }
      if (slot_of_[r] != kNoSlot) ++hits;
    }
  } else {
    // Branch-free max-reduce (vectorizes to vpmaxud) with one compare at
    // the end; the per-position error detail is rebuilt on the cold path.
    std::uint32_t mx = 0;
    for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, indices[i]);
    if (n != 0 && mx >= rows_) {
      for (std::size_t i = 0; i < n; ++i) {
        if (indices[i] >= rows_) {
          throw std::out_of_range(
              "FeatureStore::gather: index " + std::to_string(indices[i]) +
              " at position " + std::to_string(i) +
              " out of range (store has " + std::to_string(rows_) + " rows)");
        }
      }
    }
  }

  // Uncached stores hand each thread's whole contiguous chunk to one
  // batched codec kernel (src/tensor/codec.*): the dtype switch, dequant
  // parameter loads, and software prefetch all live outside the per-row
  // path. Cached stores interleave cache hits with payload decodes, so
  // they keep a per-row loop (the hit is a straight memcpy anyway), with
  // the same row lookahead. Chunking is parallel_for_ranges' static
  // split — identical output rows for any thread count.
  if (!cached) {
    util::parallel_for_ranges(
        static_cast<std::int64_t>(n), threads,
        [this, indices, &out](std::int64_t begin, std::int64_t end) {
          const auto b = static_cast<std::size_t>(begin);
          const std::size_t len = static_cast<std::size_t>(end) - b;
          switch (dtype_) {
            case FeatureDtype::kF32:
              tensor::codec::gather_f32_rows(payload_, row_bytes_,
                                             indices.data() + b, len, cols_,
                                             out.row(b));
              break;
            case FeatureDtype::kF16:
              tensor::codec::gather_f16_rows(payload_, row_bytes_,
                                             indices.data() + b, len, cols_,
                                             out.row(b));
              break;
            case FeatureDtype::kBf16:
              tensor::codec::gather_bf16_rows(payload_, row_bytes_,
                                              indices.data() + b, len, cols_,
                                              out.row(b));
              break;
            case FeatureDtype::kI8:
              tensor::codec::gather_i8_rows(payload_, row_bytes_,
                                            indices.data() + b, len,
                                            scale_.data(), bias_.data(),
                                            cols_, out.row(b));
              break;
          }
        });
  } else {
    constexpr std::size_t kPrefetchRows = 8;
    util::parallel_for(
        static_cast<std::int64_t>(n), threads,
        [this, indices, n, &out](std::int64_t i) {
          const auto pos = static_cast<std::size_t>(i);
          const std::size_t pf = pos + kPrefetchRows;
          if (pf < n) {
            const std::uint32_t pr = indices[pf];
            const std::uint32_t pslot = slot_of_[pr];
            const std::uint8_t* src =
                pslot != kNoSlot
                    ? reinterpret_cast<const std::uint8_t*>(cache_.row(pslot))
                    : payload_ + static_cast<std::size_t>(pr) * row_bytes_;
            const std::size_t len = pslot != kNoSlot ? cols_ * 4 : row_bytes_;
            for (std::size_t b = 0; b < len; b += 64) {
              __builtin_prefetch(src + b, 0, 0);
            }
          }
          const std::uint32_t r = indices[pos];
          float* dst = out.row(pos);
          const std::uint32_t slot = slot_of_[r];
          if (slot != kNoSlot) {
            std::memcpy(dst, cache_.row(slot), cols_ * sizeof(float));
          } else {
            decode_row(r, dst);
          }
        });
  }

  const std::uint64_t misses = n - hits;
  const std::uint64_t bytes =
      hits * cols_ * 8 + misses * (row_bytes_ + cols_ * 4);
  GSGCN_COUNTER_ADD("featstore.rows", static_cast<double>(n));
  GSGCN_COUNTER_ADD("featstore.cache_hits", static_cast<double>(hits));
  GSGCN_COUNTER_ADD("featstore.cache_misses", static_cast<double>(misses));
  GSGCN_COUNTER_ADD("featstore.bytes_moved", static_cast<double>(bytes));
}

void FeatureStore::prefetch(std::span<const std::uint32_t> indices) const {
  if (map_ == nullptr || indices.empty() || row_bytes_ == 0) return;
  static const std::size_t kPage =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));

  // Coalesce the rows into page-aligned ranges so one madvise covers a
  // run of neighboring hot rows instead of one syscall per row.
  std::vector<std::uint32_t> ids(indices.begin(), indices.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  std::uint64_t advised = 0;
  std::uintptr_t run_lo = 0, run_hi = 0;
  auto flush = [&] {
    if (run_hi > run_lo) {
      ::madvise(reinterpret_cast<void*>(run_lo), run_hi - run_lo,
                MADV_WILLNEED);
      advised += run_hi - run_lo;
    }
  };
  for (const std::uint32_t r : ids) {
    if (r >= rows_) continue;  // a hint, not a validator
    const auto lo =
        (reinterpret_cast<std::uintptr_t>(payload_) + r * row_bytes_) &
        ~(kPage - 1);
    const auto hi =
        (reinterpret_cast<std::uintptr_t>(payload_) + (r + 1) * row_bytes_ +
         kPage - 1) &
        ~(kPage - 1);
    if (lo <= run_hi && run_hi != 0) {
      run_hi = std::max(run_hi, hi);
    } else {
      flush();
      run_lo = lo;
      run_hi = hi;
    }
  }
  flush();

  GSGCN_COUNTER_INC("featstore.prefetch_calls");
  GSGCN_COUNTER_ADD("featstore.prefetch_bytes", static_cast<double>(advised));
}

tensor::Matrix FeatureStore::to_dense(int threads) const {
  tensor::Matrix dense(rows_, cols_);
  util::parallel_for(static_cast<std::int64_t>(rows_), threads,
                     [this, &dense](std::int64_t i) {
                       decode_row(static_cast<std::size_t>(i),
                                  dense.row(static_cast<std::size_t>(i)));
                     });
  return dense;
}

// ---------------------------------------------------------------------------
// On-disk layout.
// ---------------------------------------------------------------------------

void FeatureStore::write_file(const std::string& path,
                              const tensor::Matrix& features,
                              FeatureDtype dtype) {
  FeatureStore fs = encode(features, dtype);
  const std::uint64_t payload_bytes = fs.rows_ * fs.row_bytes_;
  const std::uint32_t payload_crc =
      util::crc32(fs.payload_, static_cast<std::size_t>(payload_bytes));

  std::string meta;
  meta.reserve(40 + 8 * fs.cols_);
  put_u32(meta, static_cast<std::uint32_t>(dtype));
  put_u64(meta, fs.rows_);
  put_u64(meta, fs.cols_);
  const std::size_t meta_bytes =
      40 + (dtype == FeatureDtype::kI8 ? 8 * fs.cols_ : 0);
  const std::uint64_t payload_offset =
      (util::kFrameHeaderBytes + meta_bytes + kPayloadAlign - 1) /
      kPayloadAlign * kPayloadAlign;
  put_u64(meta, payload_offset);
  put_u64(meta, payload_bytes);
  put_u32(meta, payload_crc);
  if (dtype == FeatureDtype::kI8) {
    for (const float s : fs.scale_) put_u32(meta, f32_bits_of(s));
    for (const float z : fs.zp_) put_u32(meta, f32_bits_of(z));
  }
  const std::string frame = util::frame_encode(kFeatFrame, meta);

  // Atomic publish: write to a sibling tmp file, rename over the target.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("feature store: cannot open " + tmp);
    }
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    const std::string pad(payload_offset - frame.size(), '\0');
    out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
    if (payload_bytes > 0) {
      out.write(reinterpret_cast<const char*>(fs.payload_),
                static_cast<std::streamsize>(payload_bytes));
    }
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("feature store: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("feature store: rename " + tmp + " -> " + path +
                             " failed: " + std::strerror(errno));
  }
}

FeatureStore FeatureStore::open_mmap(const std::string& path,
                                     const FeatureStoreOptions& opts,
                                     std::span<const graph::Vid> hot_order) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("feature store: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("feature store: fstat " + path + ": " +
                             std::strerror(err));
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  auto map = std::make_unique<Mapping>();
  if (len > 0) {
    map->base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map->base == MAP_FAILED) {
      const int err = errno;
      map->base = nullptr;
      ::close(fd);
      throw std::runtime_error("feature store: mmap " + path + ": " +
                               std::strerror(err));
    }
    map->len = len;
  }
  ::close(fd);  // the mapping keeps the file alive

  std::string meta;
  const util::FrameStatus status = util::frame_decode_buffer(
      kFeatFrame,
      std::string_view(static_cast<const char*>(map->base), len), meta);
  if (status != util::FrameStatus::kOk) {
    throw std::runtime_error("feature store: " + path + ": " +
                             util::frame_status_name(status));
  }

  MetaReader rd(meta);
  const std::uint32_t dtype_raw = rd.u32();
  if (dtype_raw > static_cast<std::uint32_t>(FeatureDtype::kI8)) {
    throw std::runtime_error("feature store: " + path +
                             ": unknown dtype tag " +
                             std::to_string(dtype_raw));
  }
  FeatureStore fs;
  fs.dtype_ = static_cast<FeatureDtype>(dtype_raw);
  fs.rows_ = rd.u64();
  fs.cols_ = rd.u64();
  const std::uint64_t payload_offset = rd.u64();
  const std::uint64_t payload_bytes = rd.u64();
  const std::uint32_t payload_crc = rd.u32();
  fs.row_bytes_ = fs.cols_ * feature_dtype_bytes(fs.dtype_);
  if (payload_bytes != fs.rows_ * fs.row_bytes_ ||
      payload_offset < util::kFrameHeaderBytes ||
      payload_offset + payload_bytes > len) {
    throw std::runtime_error("feature store: " + path +
                             ": inconsistent geometry (truncated file?)");
  }
  if (fs.dtype_ == FeatureDtype::kI8) {
    fs.scale_.resize(fs.cols_);
    fs.zp_.resize(fs.cols_);
    fs.bias_.resize(fs.cols_);
    for (std::size_t j = 0; j < fs.cols_; ++j) fs.scale_[j] = rd.f32();
    for (std::size_t j = 0; j < fs.cols_; ++j) fs.zp_[j] = rd.f32();
    for (std::size_t j = 0; j < fs.cols_; ++j) {
      fs.bias_[j] = -fs.zp_[j] * fs.scale_[j];
    }
  }
  if (!rd.exhausted()) {
    throw std::runtime_error("feature store: " + path +
                             ": trailing metadata bytes");
  }
  fs.payload_ =
      static_cast<const std::uint8_t*>(map->base) + payload_offset;
  if (opts.verify_payload) {
    const std::uint32_t got =
        util::crc32(fs.payload_, static_cast<std::size_t>(payload_bytes));
    if (got != payload_crc) {
      throw std::runtime_error("feature store: " + path +
                               ": payload CRC mismatch");
    }
  }
  // Gathers are random-access by nature; the pool-lookahead prefetch()
  // upgrades the pages we know are coming.
  if (payload_bytes > 0) {
    ::madvise(const_cast<std::uint8_t*>(fs.payload_),
              static_cast<std::size_t>(payload_bytes), MADV_RANDOM);
  }
  fs.map_ = std::move(map);
  fs.build_cache(opts.cache_mb, hot_order);
  return fs;
}

}  // namespace gsgcn::data
