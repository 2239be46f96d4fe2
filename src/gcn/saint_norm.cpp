#include "gcn/saint_norm.hpp"

#include <stdexcept>
#include <unordered_set>

namespace gsgcn::gcn {

SaintNormalizer::SaintNormalizer(graph::Vid num_vertices)
    : num_vertices_(num_vertices), counts_(num_vertices, 0) {}

void SaintNormalizer::estimate(sampling::VertexSampler& sampler,
                               util::Xoshiro256& rng, int num_samples) {
  if (num_samples <= 0) {
    throw std::invalid_argument("SaintNormalizer: num_samples must be > 0");
  }
  std::unordered_set<graph::Vid> seen;
  for (int s = 0; s < num_samples; ++s) {
    seen.clear();
    for (const graph::Vid v : sampler.sample_vertices(rng)) {
      if (v >= num_vertices_) {
        throw std::out_of_range("SaintNormalizer: sampled vertex out of range");
      }
      if (seen.insert(v).second) ++counts_[v];
    }
  }
  samples_ += num_samples;

  // Precompute normalized weights: w_v ∝ 1/p_v, mean over vertices = 1.
  weights_.assign(num_vertices_, 0.0f);
  double total = 0.0;
  for (graph::Vid v = 0; v < num_vertices_; ++v) {
    const double w = 1.0 / inclusion_probability(v);
    weights_[v] = static_cast<float>(w);
    total += w;
  }
  const double mean = total / static_cast<double>(num_vertices_);
  for (auto& w : weights_) w = static_cast<float>(w / mean);
}

double SaintNormalizer::inclusion_probability(graph::Vid v) const {
  if (v >= num_vertices_) {
    throw std::out_of_range("SaintNormalizer: vertex out of range");
  }
  return (static_cast<double>(counts_[v]) + 0.5) /
         (static_cast<double>(samples_) + 1.0);
}

float SaintNormalizer::loss_weight(graph::Vid v) const {
  if (!estimated()) {
    throw std::logic_error("SaintNormalizer: estimate() not called");
  }
  if (v >= num_vertices_) {
    throw std::out_of_range("SaintNormalizer: vertex out of range");
  }
  return weights_[v];
}

void SaintNormalizer::batch_weights(const std::vector<graph::Vid>& vertices,
                                    std::vector<float>& out) const {
  out.resize(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    out[i] = loss_weight(vertices[i]);
  }
}

std::vector<float> SaintNormalizer::batch_weights(
    const std::vector<graph::Vid>& vertices) const {
  std::vector<float> out;
  batch_weights(vertices, out);
  return out;
}

}  // namespace gsgcn::gcn
