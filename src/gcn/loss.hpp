#pragma once
// Classification losses with fused gradients.
//
// Multi-label datasets (PPI/Yelp/Amazon) use per-class sigmoid + binary
// cross-entropy; single-label (Reddit) uses row softmax + cross-entropy.
// Both return the mean loss and write dL/dlogits in one pass (numerically
// stabilized: log-sum-exp for softmax, |z|-folded form for sigmoid BCE).
//
// Rows run in fixed 64-row blocks on `threads` (≤ 0: the OpenMP max).
// Each block sums into its own double partial and the partials are added
// in block order, so the loss and d_logits are bit-identical at every
// thread count.

#include <span>

#include "data/dataset.hpp"
#include "tensor/matrix.hpp"

namespace gsgcn::gcn {

/// Mean sigmoid binary cross-entropy over all (row, class) cells.
/// d_logits gets dL/dz (already divided by rows*cols). Shapes must match.
float sigmoid_bce_loss(const tensor::Matrix& logits,
                       const tensor::Matrix& labels, tensor::Matrix& d_logits,
                       int threads = 0);

/// Mean softmax cross-entropy over rows; labels one-hot.
/// d_logits gets (softmax - y)/rows.
float softmax_ce_loss(const tensor::Matrix& logits,
                      const tensor::Matrix& labels, tensor::Matrix& d_logits,
                      int threads = 0);

/// Dispatch on label mode.
float classification_loss(data::LabelMode mode, const tensor::Matrix& logits,
                          const tensor::Matrix& labels,
                          tensor::Matrix& d_logits, int threads = 0);

/// Row-weighted variants: row i's contribution (loss and gradient) is
/// scaled by row_weights[i]. With GraphSAINT-style weights 1/p_v the
/// minibatch loss becomes an unbiased estimator of the full training
/// loss despite the sampler's degree bias (see gcn/saint_norm.hpp).
float sigmoid_bce_loss_weighted(const tensor::Matrix& logits,
                                const tensor::Matrix& labels,
                                std::span<const float> row_weights,
                                tensor::Matrix& d_logits, int threads = 0);
float softmax_ce_loss_weighted(const tensor::Matrix& logits,
                               const tensor::Matrix& labels,
                               std::span<const float> row_weights,
                               tensor::Matrix& d_logits, int threads = 0);
float classification_loss_weighted(data::LabelMode mode,
                                   const tensor::Matrix& logits,
                                   const tensor::Matrix& labels,
                                   std::span<const float> row_weights,
                                   tensor::Matrix& d_logits, int threads = 0);

/// Row-wise predictions for metric computation: multi → sigmoid(z) > 0.5
/// per class; single → one-hot argmax. Writes 0/1 into `pred`.
void predict(data::LabelMode mode, const tensor::Matrix& logits,
             tensor::Matrix& pred);

}  // namespace gsgcn::gcn
