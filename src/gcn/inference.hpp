#pragma once
// Full-graph inference without training caches.
//
// GcnModel::forward keeps per-layer activations for backward — at
// |V|·2·hidden floats per layer that is fine for sampled subgraphs but
// wasteful for full-graph evaluation on large inputs. This path computes
// layers with two ping-pong buffers and no cached state, using the same
// weights. evaluate_f1 over it is the one evaluation every trainer runs
// (gcn::Trainer and the three baselines).

#include "data/dataset.hpp"
#include "gcn/model.hpp"

namespace gsgcn::gcn {

/// Scratch buffers reusable across inference calls (avoids reallocating
/// |V|-sized matrices every evaluation epoch).
struct InferenceScratch {
  tensor::Matrix h_a;
  tensor::Matrix h_b;
  tensor::Matrix agg;
  tensor::Matrix logits;
};

/// Logits for every vertex of g. Bit-identical to model.forward(g, x,
/// threads) in eval mode (no dropout): the same kernels in the same
/// order. Leaves the model's training caches untouched and allocates
/// only the scratch.
const tensor::Matrix& infer_logits(const GcnModel& model,
                                   const graph::CsrGraph& g,
                                   const tensor::Matrix& x,
                                   InferenceScratch& scratch, int threads);

/// Scratch of evaluate_f1, reusable across calls and subsets.
struct EvalScratch {
  tensor::Matrix pred;          // predictions for every vertex
  tensor::Matrix subset_pred;   // their rows in the subset
  tensor::Matrix subset_truth;  // the subset's labels
  InferenceScratch infer;
};

/// F1-micro of full-graph inference over `ds` restricted to the `subset`
/// rows (0 for an empty subset). Runs outside the phase ledger.
double evaluate_f1(const GcnModel& model, const data::Dataset& ds,
                   const std::vector<graph::Vid>& subset,
                   EvalScratch& scratch, int threads);

}  // namespace gsgcn::gcn
