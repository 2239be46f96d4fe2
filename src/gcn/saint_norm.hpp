#pragma once
// Sampling-bias normalization (the paper's future work — "theoretical
// foundation of the graph sampling-based GCN" — which its authors later
// published as GraphSAINT).
//
// Frontier sampling visits high-degree vertices more often than uniform
// ones, so the naive minibatch loss Σ_{v∈G_s} ℓ_v is a *biased* estimate
// of the full training loss. GraphSAINT's fix: estimate each vertex's
// inclusion probability p_v by pre-sampling S subgraphs and counting
// occurrences (λ_v = C_v / S), then weight each sampled vertex's loss by
// 1/λ_v, making the minibatch loss an unbiased estimator of Σ_v ℓ_v up
// to the Monte-Carlo error of the estimate.

#include <vector>

#include "graph/csr.hpp"
#include "sampling/sampler.hpp"

namespace gsgcn::gcn {

class SaintNormalizer {
 public:
  explicit SaintNormalizer(graph::Vid num_vertices);

  /// Pre-sample `num_samples` subgraphs and count vertex occurrences.
  /// Duplicates within one sample count once (inclusion probability).
  void estimate(sampling::VertexSampler& sampler, util::Xoshiro256& rng,
                int num_samples);

  bool estimated() const { return samples_ > 0; }
  int samples() const { return samples_; }

  /// Estimated inclusion probability of vertex v, with add-half smoothing
  /// (never 0, so weights stay finite): (C_v + 0.5) / (S + 1).
  double inclusion_probability(graph::Vid v) const;

  /// Loss weight ∝ 1/p_v, rescaled so the *mean weight over all vertices*
  /// is 1 (keeps the effective learning rate comparable to the
  /// unnormalized loss). Requires estimate() first.
  float loss_weight(graph::Vid v) const;

  /// Gather weights for a batch of (train-graph) vertex ids, into `out`
  /// (resized; a reused vector stops allocating) or a fresh vector.
  void batch_weights(const std::vector<graph::Vid>& vertices,
                     std::vector<float>& out) const;
  std::vector<float> batch_weights(const std::vector<graph::Vid>& vertices) const;

 private:
  graph::Vid num_vertices_;
  std::vector<std::int32_t> counts_;
  std::vector<float> weights_;  // precomputed normalized 1/p
  int samples_ = 0;
};

}  // namespace gsgcn::gcn
