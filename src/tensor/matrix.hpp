#pragma once
// Dense row-major float matrix, 64-byte aligned.
//
// Everything the GCN touches — features H^(ℓ), weights W_self/W_neigh,
// gradients — is one of these. float32 keeps twice the SIMD lanes of the
// paper's DOUBLE features; the propagation comm model keeps the element
// size as a parameter so the Theorem-2 numbers stay faithful.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>

#include "util/aligned_buffer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gsgcn::tensor {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Deep copy (weights are checkpointed in tests and the trainer). A
  /// copy owns exactly its rows·cols, whatever the source's capacity;
  /// copy-assignment reuses the target's storage when it fits.
  Matrix(const Matrix&);
  Matrix& operator=(const Matrix&);
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::move(other.data_)) {}
  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      rows_ = std::exchange(other.rows_, 0);
      cols_ = std::exchange(other.cols_, 0);
      data_ = std::move(other.data_);
    }
    return *this;
  }

  /// Glorot/Xavier uniform init: U(-s, s), s = sqrt(6 / (rows + cols)).
  /// The standard GCN weight init (used by the paper's TF reference too).
  static Matrix glorot(std::size_t rows, std::size_t cols,
                       util::Xoshiro256& rng);

  /// i.i.d. N(0, stddev^2) entries — feature generation and tests.
  static Matrix gaussian(std::size_t rows, std::size_t cols, float stddev,
                         util::Xoshiro256& rng);

  /// Reshape to rows x cols on grow-only storage: the allocation is kept
  /// whenever rows·cols fits capacity() (its high-water mark) and
  /// replaced by a larger one otherwise. Contents are unspecified
  /// afterwards — nothing is zero-filled — so the caller must write every
  /// element it reads. Batch buffers whose shape follows the sampled
  /// subgraph therefore stop allocating once they have seen their largest
  /// shape. Under ASan the unused tail [rows·cols, capacity) is poisoned.
  void resize(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }
  /// Elements the storage holds; size() <= capacity().
  std::size_t capacity() const { return data_.size(); }
  bool empty() const { return size() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float* row(std::size_t i) {
    GSGCN_CHECK_BOUNDS(i, rows_);
    return data_.data() + i * cols_;
  }
  const float* row(std::size_t i) const {
    GSGCN_CHECK_BOUNDS(i, rows_);
    return data_.data() + i * cols_;
  }

  float& operator()(std::size_t i, std::size_t j) {
    GSGCN_CHECK_BOUNDS(j, cols_);
    return row(i)[j];
  }
  float operator()(std::size_t i, std::size_t j) const {
    GSGCN_CHECK_BOUNDS(j, cols_);
    return row(i)[j];
  }

  /// Set the rows·cols logical elements (not the spare capacity).
  void fill(float v);
  void set_zero() { fill(0.0f); }

  /// Max |a - b| over entries; shape mismatch returns +inf. Test helper.
  static float max_abs_diff(const Matrix& a, const Matrix& b);

  /// Frobenius norm.
  float frobenius_norm() const;

  std::string shape_str() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  util::AlignedBuffer<float> data_;
};

/// Non-owning strided view of a row-major block: element (i, j) lives at
/// data[i * ld + j] with ld >= cols. A whole Matrix converts implicitly
/// (ld == cols), and cols_slice() carves out a column range of a wider
/// matrix — that is how the GCN layer writes the self/neigh GEMM outputs
/// straight into the two halves of its concat buffer without a copy.
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(float* data, std::size_t rows, std::size_t cols, std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    GSGCN_ASSERT(ld >= cols, "view ld must cover cols");
  }
  MatrixView(Matrix& m)  // NOLINT(google-explicit-constructor)
      : MatrixView(m.data(), m.rows(), m.cols(), m.cols()) {}

  /// Columns [col0, col0 + ncols) of m, all rows, stride m.cols().
  static MatrixView cols_slice(Matrix& m, std::size_t col0,
                               std::size_t ncols) {
    GSGCN_ASSERT(col0 + ncols <= m.cols(), "cols_slice out of range");
    return {m.data() + col0, m.rows(), ncols, m.cols()};
  }
  /// Columns [col0, col0 + ncols) of view v, all its rows, stride v.ld().
  static MatrixView cols_slice(MatrixView v, std::size_t col0,
                               std::size_t ncols) {
    GSGCN_ASSERT(col0 + ncols <= v.cols(), "cols_slice out of range");
    return {v.data() + col0, v.rows(), ncols, v.ld()};
  }
  /// Rows [row0, row0 + nrows) of m, all columns.
  static MatrixView rows_slice(Matrix& m, std::size_t row0,
                               std::size_t nrows) {
    GSGCN_ASSERT(row0 + nrows <= m.rows(), "rows_slice out of range");
    return {m.data() + row0 * m.cols(), nrows, m.cols(), m.cols()};
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return ld_; }
  float* data() const { return data_; }
  float* row(std::size_t i) const {
    GSGCN_CHECK_BOUNDS(i, rows_);
    return data_ + i * ld_;
  }
  float& operator()(std::size_t i, std::size_t j) const {
    GSGCN_CHECK_BOUNDS(j, cols_);
    return row(i)[j];
  }
  std::string shape_str() const;

 private:
  float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
};

/// Read-only counterpart of MatrixView (GEMM A/B operands).
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const float* data, std::size_t rows, std::size_t cols,
                  std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    GSGCN_ASSERT(ld >= cols, "view ld must cover cols");
  }
  ConstMatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : ConstMatrixView(m.data(), m.rows(), m.cols(), m.cols()) {}
  ConstMatrixView(MatrixView v)  // NOLINT(google-explicit-constructor)
      : ConstMatrixView(v.data(), v.rows(), v.cols(), v.ld()) {}

  static ConstMatrixView cols_slice(const Matrix& m, std::size_t col0,
                                    std::size_t ncols) {
    GSGCN_ASSERT(col0 + ncols <= m.cols(), "cols_slice out of range");
    return {m.data() + col0, m.rows(), ncols, m.cols()};
  }
  static ConstMatrixView rows_slice(const Matrix& m, std::size_t row0,
                                    std::size_t nrows) {
    GSGCN_ASSERT(row0 + nrows <= m.rows(), "rows_slice out of range");
    return {m.data() + row0 * m.cols(), nrows, m.cols(), m.cols()};
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return ld_; }
  const float* data() const { return data_; }
  const float* row(std::size_t i) const {
    GSGCN_CHECK_BOUNDS(i, rows_);
    return data_ + i * ld_;
  }
  float operator()(std::size_t i, std::size_t j) const {
    GSGCN_CHECK_BOUNDS(j, cols_);
    return row(i)[j];
  }
  std::string shape_str() const;

 private:
  const float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
};

/// Binary (de)serialization: rows, cols (u64 each) then row-major float
/// payload. Streams must be opened in binary mode; read_matrix throws
/// std::runtime_error on truncation.
void write_matrix(std::ostream& out, const Matrix& m);
Matrix read_matrix(std::istream& in);

}  // namespace gsgcn::tensor
