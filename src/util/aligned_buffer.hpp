#pragma once
// Cache-line / SIMD aligned owning buffer.
//
// The sampler Dashboard and the tensor library both want 64-byte aligned
// storage so AVX2 loads never split cache lines. std::vector cannot
// guarantee alignment beyond alignof(std::max_align_t), hence this tiny
// RAII wrapper around ::operator new(std::align_val_t).

#include <cstddef>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define GSGCN_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GSGCN_ASAN 1
#endif
#endif
#ifdef GSGCN_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace gsgcn::util {

inline constexpr std::size_t kCacheLine = 64;

/// Owning, 64-byte aligned, uninitialized buffer of trivially-copyable T.
/// Move-only. size() is in elements, not bytes.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t n) { reset(n); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      destroy();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { destroy(); }

  /// Discard contents and reallocate to n elements (uninitialized).
  void reset(std::size_t n) {
    destroy();
    if (n > 0) {
      data_ = static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{kCacheLine}));
    }
    size_ = n;
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Mark elements [used, size()) unaddressable under ASan and [0, used)
  /// addressable again, so an owner that keeps a larger allocation than
  /// it currently uses (tensor::Matrix's grow-only storage) still faults
  /// on a read past its logical end. A no-op in other builds.
  void poison_tail([[maybe_unused]] std::size_t used) noexcept {
#ifdef GSGCN_ASAN
    if (data_ == nullptr) return;
    ASAN_UNPOISON_MEMORY_REGION(data_, used * sizeof(T));
    ASAN_POISON_MEMORY_REGION(data_ + used, (size_ - used) * sizeof(T));
#endif
  }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  void destroy() noexcept {
    if (data_ != nullptr) {
#ifdef GSGCN_ASAN
      ASAN_UNPOISON_MEMORY_REGION(data_, size_ * sizeof(T));
#endif
      ::operator delete(data_, std::align_val_t{kCacheLine});
      data_ = nullptr;
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace gsgcn::util
