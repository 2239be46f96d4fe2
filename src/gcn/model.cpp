#include "gcn/model.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/phase.hpp"
#include "tensor/ops.hpp"

namespace gsgcn::gcn {

GcnModel::GcnModel(const ModelConfig& config) : cfg_(config) {
  if (cfg_.in_dim == 0 || cfg_.num_classes == 0 || cfg_.hidden_dim == 0 ||
      cfg_.num_layers < 1) {
    throw std::invalid_argument("GcnModel: bad config");
  }
  util::Xoshiro256 rng(cfg_.seed);
  std::size_t width = cfg_.in_dim;
  for (int l = 0; l < cfg_.num_layers; ++l) {
    layers_.emplace_back(width, cfg_.hidden_dim, /*relu=*/true, rng,
                         cfg_.aggregator, l);
    layers_.back().set_dropout(cfg_.dropout);
    width = layers_.back().output_width();
  }
  w_cls_ = tensor::Matrix::glorot(width, cfg_.num_classes, rng);
  b_cls_ = tensor::Matrix(1, cfg_.num_classes);
  d_w_cls_ = tensor::Matrix(width, cfg_.num_classes);
  d_b_cls_ = tensor::Matrix(1, cfg_.num_classes);
}

const tensor::Matrix& GcnModel::forward(const graph::CsrGraph& g,
                                        const tensor::Matrix& x, int threads,
                                        bool training) {
  const tensor::Matrix* h = &x;
  for (auto& layer : layers_) {
    h = &layer.forward(g, *h, threads, training);
  }
  last_hidden_ = h;
  const std::int64_t head = cfg_.num_layers;
  {
    obs::PhaseScope scope(
        obs::Op::kGemm, obs::Dir::kForward, head,
        obs::gemm_work(static_cast<std::int64_t>(h->rows()),
                       static_cast<std::int64_t>(h->cols()),
                       static_cast<std::int64_t>(cfg_.num_classes), false));
    ensure_shape(logits_, h->rows(), cfg_.num_classes);
    tensor::gemm_nn(*h, w_cls_, logits_, 1.0f, 0.0f, threads);
  }
  obs::PhaseScope scope(obs::Op::kElementwise, obs::Dir::kForward, head);
  tensor::add_bias_rows(logits_, {b_cls_.data(), b_cls_.cols()}, threads);
  return logits_;
}

void GcnModel::backward(const graph::CsrGraph& g,
                        const tensor::Matrix& d_logits, int threads) {
  if (last_hidden_ == nullptr) {
    throw std::logic_error("GcnModel::backward before forward");
  }
  const std::int64_t head = cfg_.num_layers;
  {
    obs::PhaseScope scope(obs::Op::kElementwise, obs::Dir::kBackward, head);
    tensor::bias_grad(d_logits, {d_b_cls_.data(), d_b_cls_.cols()});
  }
  {
    const obs::Work w = obs::gemm_work(
        static_cast<std::int64_t>(last_hidden_->cols()),
        static_cast<std::int64_t>(d_logits.rows()),
        static_cast<std::int64_t>(cfg_.num_classes), false);
    obs::PhaseScope scope(obs::Op::kGemm, obs::Dir::kBackward, head,
                          {2 * w.flops, 2 * w.bytes});
    ensure_shape(d_hidden_, last_hidden_->rows(), last_hidden_->cols());
    tensor::gemm_tn(*last_hidden_, d_logits, d_w_cls_, 1.0f, 0.0f, threads);
    tensor::gemm_nt(d_logits, w_cls_, d_hidden_, 1.0f, 0.0f, threads);
  }
  // Every layer but the first passes d(H_in) down; the first layer's
  // input is the feature matrix, whose gradient nothing reads.
  const tensor::Matrix* d = &d_hidden_;
  for (std::size_t l = layers_.size() - 1; l > 0; --l) {
    d = &layers_[l].backward(g, *d, threads);
  }
  layers_.front().backward_weights(*d, threads);
  last_hidden_ = nullptr;
}

void GcnModel::attach(Adam& opt) {
  if (attached_) throw std::logic_error("GcnModel: already attached");
  for (auto& layer : layers_) {
    slots_.push_back(opt.add_param(layer.w_self().rows(), layer.w_self().cols()));
    slots_.push_back(opt.add_param(layer.w_neigh().rows(), layer.w_neigh().cols()));
  }
  slots_.push_back(opt.add_param(w_cls_.rows(), w_cls_.cols()));
  slots_.push_back(opt.add_param(b_cls_.rows(), b_cls_.cols()));
  attached_ = true;
}

void GcnModel::apply_gradients(Adam& opt) {
  if (!attached_) throw std::logic_error("GcnModel: attach before stepping");
  opt.begin_step();
  std::size_t s = 0;
  for (auto& layer : layers_) {
    opt.update(slots_[s++], layer.w_self(), layer.grad_w_self());
    opt.update(slots_[s++], layer.w_neigh(), layer.grad_w_neigh());
  }
  opt.update(slots_[s++], w_cls_, d_w_cls_);
  opt.update(slots_[s++], b_cls_, d_b_cls_);
}

namespace {
constexpr std::uint64_t kCheckpointMagic = 0x6773676e6d646c31ULL;  // gsgnmdl1
}  // namespace

void GcnModel::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("GcnModel::save: cannot open " + path);
  save(out);
  if (!out) throw std::runtime_error("GcnModel::save: write failed: " + path);
}

void GcnModel::save(std::ostream& out) const {
  out.write(reinterpret_cast<const char*>(&kCheckpointMagic),
            sizeof(kCheckpointMagic));
  const std::uint64_t fields[] = {
      cfg_.in_dim, cfg_.hidden_dim, cfg_.num_classes,
      static_cast<std::uint64_t>(cfg_.num_layers), cfg_.seed,
      static_cast<std::uint64_t>(cfg_.aggregator)};
  out.write(reinterpret_cast<const char*>(fields), sizeof(fields));
  out.write(reinterpret_cast<const char*>(&cfg_.dropout), sizeof(cfg_.dropout));
  for (const auto& layer : layers_) {
    tensor::write_matrix(out, layer.w_self());
    tensor::write_matrix(out, layer.w_neigh());
  }
  tensor::write_matrix(out, w_cls_);
  tensor::write_matrix(out, b_cls_);
  if (!out) throw std::runtime_error("GcnModel::save: write failed");
}

GcnModel GcnModel::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("GcnModel::load: cannot open " + path);
  try {
    return load(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(e.what()) + ": " + path);
  }
}

GcnModel GcnModel::load(std::istream& in) {
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kCheckpointMagic) {
    throw std::runtime_error("GcnModel::load: bad checkpoint");
  }
  std::uint64_t fields[6] = {};
  float dropout = 0.0f;
  in.read(reinterpret_cast<char*>(fields), sizeof(fields));
  in.read(reinterpret_cast<char*>(&dropout), sizeof(dropout));
  if (!in) throw std::runtime_error("GcnModel::load: truncated");
  // Plausibility caps before constructing: a corrupt header must throw,
  // not drive a multi-terabyte allocation.
  if (fields[0] > (1ull << 24) || fields[1] > (1ull << 24) ||
      fields[2] > (1ull << 24) || fields[3] > 1024) {
    throw std::runtime_error("GcnModel::load: implausible header dims");
  }
  ModelConfig cfg;
  cfg.in_dim = fields[0];
  cfg.hidden_dim = fields[1];
  cfg.num_classes = fields[2];
  cfg.num_layers = static_cast<int>(fields[3]);
  cfg.seed = fields[4];
  cfg.aggregator = static_cast<propagation::AggregatorKind>(fields[5]);
  cfg.dropout = dropout;
  GcnModel model(cfg);
  for (auto& layer : model.layers_) {
    layer.w_self() = tensor::read_matrix(in);
    layer.w_neigh() = tensor::read_matrix(in);
    if (layer.w_self().rows() != layer.in_dim() ||
        layer.w_self().cols() != layer.out_dim() ||
        layer.w_neigh().rows() != layer.in_dim() ||
        layer.w_neigh().cols() != layer.out_dim()) {
      throw std::runtime_error("GcnModel::load: weight shape mismatch");
    }
  }
  model.w_cls_ = tensor::read_matrix(in);
  model.b_cls_ = tensor::read_matrix(in);
  if (model.w_cls_.cols() != cfg.num_classes ||
      model.b_cls_.cols() != cfg.num_classes) {
    throw std::runtime_error("GcnModel::load: classifier shape mismatch");
  }
  return model;
}

std::vector<tensor::Matrix> GcnModel::snapshot_weights() const {
  std::vector<tensor::Matrix> snap;
  snap.reserve(layers_.size() * 2 + 2);
  for (const auto& layer : layers_) {
    snap.push_back(layer.w_self());
    snap.push_back(layer.w_neigh());
  }
  snap.push_back(w_cls_);
  snap.push_back(b_cls_);
  return snap;
}

void GcnModel::restore_weights(const std::vector<tensor::Matrix>& snapshot) {
  if (snapshot.size() != layers_.size() * 2 + 2) {
    throw std::invalid_argument("restore_weights: snapshot size mismatch");
  }
  std::size_t s = 0;
  for (auto& layer : layers_) {
    layer.w_self() = snapshot[s++];
    layer.w_neigh() = snapshot[s++];
  }
  w_cls_ = snapshot[s++];
  b_cls_ = snapshot[s++];
}

std::size_t GcnModel::num_parameters() const {
  std::size_t total = w_cls_.size() + b_cls_.size();
  for (const auto& layer : layers_) {
    total += layer.w_self().size() + layer.w_neigh().size();
  }
  return total;
}

}  // namespace gsgcn::gcn
