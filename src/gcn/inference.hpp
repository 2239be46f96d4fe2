#pragma once
// Full-graph inference without training caches.
//
// GcnModel::forward keeps per-layer activations for backward — at
// |V|·2·hidden floats per layer that is fine for sampled subgraphs but
// wasteful for full-graph evaluation on large inputs. This path uses the
// same weights and kernels and walks each layer in chunks of
// kInferenceChunkRows destination rows: the chunk's rows are aggregated
// into a chunk-sized buffer and both GEMMs run on row views, so only the
// outputs of the non-last layers (which the next layer's aggregation
// reads at any row) and the logits keep |V| rows. The last layer's chunk
// goes straight into the classifier GEMM. evaluate_f1 over it is the one
// evaluation every trainer runs (gcn::Trainer and the three baselines).

#include "data/dataset.hpp"
#include "gcn/model.hpp"

namespace gsgcn::gcn {

/// Destination rows per inference chunk. A chunk's aggregation is
/// 2048 × in_dim floats (4.9 MB at 602 inputs) instead of |V| × in_dim.
inline constexpr std::size_t kInferenceChunkRows = 2048;

/// Scratch buffers reusable across inference calls. Grow-only (see
/// ensure_shape): after the largest graph seen, calls do not allocate.
struct InferenceScratch {
  tensor::Matrix h_a;     // non-last layer outputs, |V| rows (ping-pong)
  tensor::Matrix h_b;
  tensor::Matrix agg;     // one chunk's aggregation
  tensor::Matrix head;    // one chunk of the last layer's output
  tensor::Matrix logits;  // |V| rows
};

/// Logits for every vertex of g. Bit-identical to model.forward(g, x,
/// threads) in eval mode (no dropout) at any thread count: the SpMM sums
/// each row in a fixed order, and no GEMM element's K order depends on
/// the row split. Leaves the model's training caches untouched and
/// allocates only the scratch.
const tensor::Matrix& infer_logits(const GcnModel& model,
                                   const graph::CsrGraph& g,
                                   const tensor::Matrix& x,
                                   InferenceScratch& scratch, int threads);

/// Scratch of evaluate_f1, reusable across calls and subsets.
struct EvalScratch {
  tensor::Matrix subset_logits;  // the subset's rows of the logits
  tensor::Matrix subset_pred;    // their predictions
  tensor::Matrix subset_truth;   // the subset's labels
  InferenceScratch infer;
};

/// F1-micro of full-graph inference over `ds` restricted to the `subset`
/// rows (0 for an empty subset). Runs outside the phase ledger.
double evaluate_f1(const GcnModel& model, const data::Dataset& ds,
                   const std::vector<graph::Vid>& subset,
                   EvalScratch& scratch, int threads);

}  // namespace gsgcn::gcn
