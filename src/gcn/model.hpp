#pragma once
// The complete GCN of Algorithm 1: L GraphConv layers + a dense
// classification head (the paper's PREDICT step).
//
// Width bookkeeping: a GraphConv layer maps width w → 2·hidden (self ‖
// neigh concat), so with hidden = h the layer widths run
// in_dim → 2h → 2h → … → num_classes.

#include <iosfwd>
#include <vector>

#include "gcn/adam.hpp"
#include "gcn/layer.hpp"

namespace gsgcn::gcn {

struct ModelConfig {
  std::size_t in_dim = 0;
  std::size_t hidden_dim = 128;  // per concat-branch width
  std::size_t num_classes = 0;
  int num_layers = 2;            // GraphConv layers (paper: 1-3)
  std::uint64_t seed = 1;
  propagation::AggregatorKind aggregator =
      propagation::AggregatorKind::kMean;
  float dropout = 0.0f;          // input dropout per GraphConv layer
};

class GcnModel {
 public:
  explicit GcnModel(const ModelConfig& config);

  /// Forward over a (sub)graph; x is |V| x in_dim. Returns logits
  /// (|V| x num_classes), cached internally for backward. `training`
  /// enables dropout. Each step runs in an obs::PhaseScope; the
  /// classifier head's scopes carry layer id num_layers.
  const tensor::Matrix& forward(const graph::CsrGraph& g,
                                const tensor::Matrix& x, int threads,
                                bool training = false);

  /// Backward from dL/dlogits; fills all parameter gradients. The first
  /// layer computes only its weight gradients (GraphConvLayer::
  /// backward_weights): the gradient of `x` is never formed.
  void backward(const graph::CsrGraph& g, const tensor::Matrix& d_logits,
                int threads);

  /// Register every parameter with `opt` (once) …
  void attach(Adam& opt);
  /// … then apply the most recent gradients (one optimizer step).
  void apply_gradients(Adam& opt);

  const ModelConfig& config() const { return cfg_; }
  std::vector<GraphConvLayer>& layers() { return layers_; }
  const std::vector<GraphConvLayer>& layers() const { return layers_; }
  tensor::Matrix& w_cls() { return w_cls_; }
  const tensor::Matrix& w_cls() const { return w_cls_; }
  tensor::Matrix& bias_cls() { return b_cls_; }
  const tensor::Matrix& bias_cls() const { return b_cls_; }
  tensor::Matrix& grad_w_cls() { return d_w_cls_; }
  tensor::Matrix& grad_bias_cls() { return d_b_cls_; }

  /// Total trainable parameter count.
  std::size_t num_parameters() const;

  /// Weights-only persistence: binary dump of the config and every weight
  /// tensor; load() reconstructs an identical model for inference. For
  /// resuming *training* use gcn/checkpoint.hpp, which additionally
  /// carries the Adam moments/step, the sampler slot cursor, and the
  /// dropout RNG streams (this format alone would restart the optimizer
  /// cold). The stream overloads serialize into an open binary stream so
  /// composite formats (checkpoints) can embed a model section.
  void save(const std::string& path) const;
  void save(std::ostream& out) const;
  static GcnModel load(const std::string& path);
  static GcnModel load(std::istream& in);

  /// In-memory weight snapshot (layers then classifier then bias) and its
  /// inverse — the trainer's restore-best-epoch mechanism.
  std::vector<tensor::Matrix> snapshot_weights() const;
  void restore_weights(const std::vector<tensor::Matrix>& snapshot);

 private:
  ModelConfig cfg_;
  std::vector<GraphConvLayer> layers_;
  tensor::Matrix w_cls_;   // last width x classes
  tensor::Matrix b_cls_;   // 1 x classes
  tensor::Matrix d_w_cls_;
  tensor::Matrix d_b_cls_;

  const tensor::Matrix* last_hidden_ = nullptr;
  tensor::Matrix logits_;
  tensor::Matrix d_hidden_;

  std::vector<std::size_t> slots_;
  bool attached_ = false;
};

}  // namespace gsgcn::gcn
