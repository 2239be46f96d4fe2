#pragma once
// Layer-sampling baselines: GraphSAGE ([2] in the paper) and FastGCN
// ([3]). Both build a minibatch top-down: layer L holds the batch, and
// layer ℓ−1 holds layer ℓ's nodes (a prefix, so the self path stays
// defined) plus the nodes sampled for them, joined by a bipartite block.
// Only that sampling differs:
//
//   GraphSAGE  `fanout` neighbors per node, with replacement; mean
//              aggregation. The per-layer node-set growth is the
//              "neighbor explosion": O(fanout^L) work per batch vertex
//              versus our O(L).
//   FastGCN    `layer_samples` nodes per layer drawn from a
//              degree-proportional importance distribution q (the paper's
//              "potentially expensive pre-processing"), with edges
//              weighted by the unbiased mean estimator 1/(deg(v)·t·q(u)).
//
// Setup, step, epoch loop and evaluation are one code path. The step runs
// the GraphConvLayer's idiom over the blocks — prefix-row self view, both
// GEMMs writing their half of the next activation with the ReLU fused —
// with every op in an obs::PhaseScope (sampling is the `pop` op).

#include <vector>

#include "baselines/block.hpp"
#include "baselines/setup.hpp"

namespace gsgcn::baselines {

enum class LayerSampler { kGraphSage, kFastGcn };

struct LayerSamplingConfig : BaselineConfig {
  LayerSampler sampler = LayerSampler::kGraphSage;
  graph::Vid batch_size = 512;
  graph::Vid fanout = 10;          // GraphSAGE: the paper's d_LS
  graph::Vid layer_samples = 512;  // FastGCN: t, nodes drawn per layer
};

/// One sampled minibatch: per-layer node lists (positions are into the
/// *training graph*) and the blocks between them. nodes[L] is the batch;
/// nodes[ℓ] is a prefix of nodes[ℓ-1].
struct LayerBatch {
  std::vector<std::vector<graph::Vid>> nodes;  // size L+1, [0]=input layer
  std::vector<BipartiteBlock> blocks;          // size L, [ℓ] maps ℓ→ℓ+1
};

class LayerSamplingTrainer {
 public:
  LayerSamplingTrainer(const data::Dataset& dataset,
                       const LayerSamplingConfig& config);

  gcn::TrainResult train();

  /// Sample one minibatch rooted at `batch_vertices` (train-graph ids)
  /// with the configured sampler, in the `pop` phase scope. Exposed for
  /// the tests.
  LayerBatch sample_batch(const std::vector<graph::Vid>& batch_vertices,
                          util::Xoshiro256& rng) const;

  /// FastGCN's preprocessing product: q over train-graph vertices
  /// (∝ degree). Empty for GraphSAGE.
  const std::vector<double>& importance() const { return q_; }

 private:
  /// Minibatch forward+backward+step on a sampled batch; returns loss.
  float train_step(const LayerBatch& batch);

  LayerSamplingConfig cfg_;
  TrainingSetup setup_;
  std::vector<double> q_;         // FastGCN importance distribution
  std::vector<double> q_cumsum_;  // for O(log n) inverse-CDF draws
  util::Xoshiro256 rng_;
};

}  // namespace gsgcn::baselines
