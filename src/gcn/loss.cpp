#include "gcn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"

namespace gsgcn::gcn {

namespace {
void check_shapes(const tensor::Matrix& a, const tensor::Matrix& b,
                  const tensor::Matrix& c, const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.rows() != c.rows() ||
      a.cols() != c.cols()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch");
  }
  if (a.rows() == 0 || a.cols() == 0) {
    throw std::invalid_argument(std::string(what) + ": empty input");
  }
}

/// Rows per loss block. Fixed, never derived from the thread count: each
/// block sums its cells into its own double partial, and the partials are
/// added in block order, so the reported loss is identical at every
/// thread count.
constexpr std::size_t kLossBlockRows = 64;

/// Sum of row_term(i, acc) over rows [0, n): row_term adds row i's loss
/// terms into acc (and writes that row of d_logits). Blocks run in
/// parallel; the block partials are combined serially in block order.
template <class RowTerm>
double blocked_row_sum(std::size_t n, int threads, RowTerm&& row_term) {
  const std::size_t blocks = (n + kLossBlockRows - 1) / kLossBlockRows;
  std::vector<double> partial(blocks, 0.0);
  util::parallel_for(
      static_cast<std::int64_t>(blocks), threads, [&](std::int64_t b) {
        const std::size_t r0 = static_cast<std::size_t>(b) * kLossBlockRows;
        const std::size_t r1 = std::min(n, r0 + kLossBlockRows);
        double acc = 0.0;
        for (std::size_t i = r0; i < r1; ++i) row_term(i, acc);
        partial[static_cast<std::size_t>(b)] = acc;
      });
  double total = 0.0;
  for (const double p : partial) total += p;
  return total;
}

/// Stable BCE-with-logits of row i scaled by its weight wi (1 when
/// unweighted, which multiplies exactly): adds
/// wi·(max(z,0) - z·y + log(1 + e^{-|z|})) per cell into acc and writes
/// dz = wi·(sigmoid(z) - y)·inv. For z ≥ 0, e^{-|z|} is e^{-z}, so one exp
/// serves both the loss and the sigmoid there.
void bce_row(const float* z, const float* y, float* dz, std::size_t c,
             double wi, double inv, double& acc) {
  for (std::size_t j = 0; j < c; ++j) {
    const double zj = z[j];
    const double yj = y[j];
    const double e_abs = std::exp(-std::abs(zj));
    const double e_neg = zj >= 0.0 ? e_abs : std::exp(-zj);
    acc += wi * (std::max(zj, 0.0) - zj * yj + std::log1p(e_abs));
    const double sig = 1.0 / (1.0 + e_neg);
    dz[j] = static_cast<float>(wi * (sig - yj) * inv);
  }
}

/// Softmax cross-entropy of row i (log-sum-exp stabilized), scaled by wi
/// like bce_row.
void softmax_row(const float* z, const float* y, float* dz, std::size_t c,
                 double wi, double inv, double& acc) {
  double zmax = z[0];
  for (std::size_t j = 1; j < c; ++j) {
    zmax = std::max(zmax, static_cast<double>(z[j]));
  }
  double sum = 0.0;
  for (std::size_t j = 0; j < c; ++j) sum += std::exp(z[j] - zmax);
  const double log_sum = std::log(sum) + zmax;
  for (std::size_t j = 0; j < c; ++j) {
    const double p = std::exp(z[j] - log_sum);
    dz[j] = static_cast<float>(wi * (p - y[j]) * inv);
    if (y[j] != 0.0f) acc += wi * y[j] * (log_sum - z[j]);
  }
}

}  // namespace

float sigmoid_bce_loss(const tensor::Matrix& logits,
                       const tensor::Matrix& labels, tensor::Matrix& d_logits,
                       int threads) {
  check_shapes(logits, labels, d_logits, "sigmoid_bce_loss");
  const std::size_t n = logits.rows(), c = logits.cols();
  const double inv = 1.0 / static_cast<double>(n * c);
  const double total =
      blocked_row_sum(n, threads, [&](std::size_t i, double& acc) {
        bce_row(logits.row(i), labels.row(i), d_logits.row(i), c, 1.0, inv,
                acc);
      });
  return static_cast<float>(total * inv);
}

float softmax_ce_loss(const tensor::Matrix& logits,
                      const tensor::Matrix& labels, tensor::Matrix& d_logits,
                      int threads) {
  check_shapes(logits, labels, d_logits, "softmax_ce_loss");
  const std::size_t n = logits.rows(), c = logits.cols();
  const double inv = 1.0 / static_cast<double>(n);
  const double total =
      blocked_row_sum(n, threads, [&](std::size_t i, double& acc) {
        softmax_row(logits.row(i), labels.row(i), d_logits.row(i), c, 1.0,
                    inv, acc);
      });
  return static_cast<float>(total * inv);
}

float classification_loss(data::LabelMode mode, const tensor::Matrix& logits,
                          const tensor::Matrix& labels,
                          tensor::Matrix& d_logits, int threads) {
  return mode == data::LabelMode::kMulti
             ? sigmoid_bce_loss(logits, labels, d_logits, threads)
             : softmax_ce_loss(logits, labels, d_logits, threads);
}

float sigmoid_bce_loss_weighted(const tensor::Matrix& logits,
                                const tensor::Matrix& labels,
                                std::span<const float> row_weights,
                                tensor::Matrix& d_logits, int threads) {
  check_shapes(logits, labels, d_logits, "sigmoid_bce_loss_weighted");
  if (row_weights.size() != logits.rows()) {
    throw std::invalid_argument("sigmoid_bce_loss_weighted: weights length");
  }
  const std::size_t n = logits.rows(), c = logits.cols();
  const double inv = 1.0 / static_cast<double>(n * c);
  const double total =
      blocked_row_sum(n, threads, [&](std::size_t i, double& acc) {
        bce_row(logits.row(i), labels.row(i), d_logits.row(i), c,
                row_weights[i], inv, acc);
      });
  return static_cast<float>(total * inv);
}

float softmax_ce_loss_weighted(const tensor::Matrix& logits,
                               const tensor::Matrix& labels,
                               std::span<const float> row_weights,
                               tensor::Matrix& d_logits, int threads) {
  check_shapes(logits, labels, d_logits, "softmax_ce_loss_weighted");
  if (row_weights.size() != logits.rows()) {
    throw std::invalid_argument("softmax_ce_loss_weighted: weights length");
  }
  const std::size_t n = logits.rows(), c = logits.cols();
  const double inv = 1.0 / static_cast<double>(n);
  const double total =
      blocked_row_sum(n, threads, [&](std::size_t i, double& acc) {
        softmax_row(logits.row(i), labels.row(i), d_logits.row(i), c,
                    row_weights[i], inv, acc);
      });
  return static_cast<float>(total * inv);
}

float classification_loss_weighted(data::LabelMode mode,
                                   const tensor::Matrix& logits,
                                   const tensor::Matrix& labels,
                                   std::span<const float> row_weights,
                                   tensor::Matrix& d_logits, int threads) {
  return mode == data::LabelMode::kMulti
             ? sigmoid_bce_loss_weighted(logits, labels, row_weights, d_logits,
                                         threads)
             : softmax_ce_loss_weighted(logits, labels, row_weights, d_logits,
                                        threads);
}

void predict(data::LabelMode mode, const tensor::Matrix& logits,
             tensor::Matrix& pred) {
  if (pred.rows() != logits.rows() || pred.cols() != logits.cols()) {
    throw std::invalid_argument("predict: shape mismatch");
  }
  const std::size_t n = logits.rows(), c = logits.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const float* z = logits.row(i);
    float* p = pred.row(i);
    if (mode == data::LabelMode::kMulti) {
      for (std::size_t j = 0; j < c; ++j) p[j] = z[j] > 0.0f ? 1.0f : 0.0f;
    } else {
      std::size_t best = 0;
      for (std::size_t j = 1; j < c; ++j) {
        if (z[j] > z[best]) best = j;
      }
      for (std::size_t j = 0; j < c; ++j) p[j] = j == best ? 1.0f : 0.0f;
    }
  }
}

}  // namespace gsgcn::gcn
