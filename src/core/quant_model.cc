#include "core/quant_model.h"

#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "nn/serialize.h"
#include "nn/simd.h"
#include "nn/workspace.h"

namespace loam::core {
namespace {

// Forest packing, mirroring TreeConvNet::forward_batch: node rows stacked,
// child indices shifted by each tree's row offset.
void pack_forest(const std::vector<const nn::Tree*>& trees, int input_dim,
                 nn::Mat& features, std::vector<int>& left,
                 std::vector<int>& right, std::vector<int>& offsets) {
  int total = 0;
  for (const nn::Tree* t : trees) total += t->node_count();
  features.resize(total, input_dim);
  left.assign(static_cast<std::size_t>(total), -1);
  right.assign(static_cast<std::size_t>(total), -1);
  offsets.clear();
  offsets.reserve(trees.size());
  int at = 0;
  for (const nn::Tree* t : trees) {
    offsets.push_back(at);
    for (int i = 0; i < t->node_count(); ++i) {
      auto src = t->features.row(i);
      auto dst = features.row(at + i);
      std::copy(src.begin(), src.end(), dst.begin());
      const int l = t->left[static_cast<std::size_t>(i)];
      const int r = t->right[static_cast<std::size_t>(i)];
      left[static_cast<std::size_t>(at + i)] = l < 0 ? -1 : l + at;
      right[static_cast<std::size_t>(at + i)] = r < 0 ? -1 : r + at;
    }
    at += t->node_count();
  }
}

void gather_children_fp32(const nn::Mat& x, const std::vector<int>& child,
                          nn::Mat& out) {
  out.resize(x.rows(), x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    const int c = child[static_cast<std::size_t>(i)];
    auto dst = out.row(i);
    if (c < 0) {
      std::fill(dst.begin(), dst.end(), 0.0f);
    } else {
      auto src = x.row(c);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
}

// Per-tree dynamic max pooling with the strict-`>` ascending scan of
// DynamicMaxPool, over the packed forest activations.
void pool_forest(const nn::Mat& h, const std::vector<const nn::Tree*>& trees,
                 const std::vector<int>& offsets, nn::Mat& pooled) {
  pooled.resize(static_cast<int>(trees.size()), h.cols());
  for (std::size_t b = 0; b < trees.size(); ++b) {
    const int begin = offsets[b];
    const int end = begin + trees[b]->node_count();
    for (int j = 0; j < h.cols(); ++j) {
      float best = h.at(begin, j);
      for (int i = begin + 1; i < end; ++i) {
        if (h.at(i, j) > best) best = h.at(i, j);
      }
      pooled.at(static_cast<int>(b), j) = best;
    }
  }
}

// Thread-local CSR/int32 scratch so concurrent shard threads never share
// buffers (the fp32 Mats come from the per-thread Workspace arena).
struct QuantScratch {
  nn::quant::S8Rows rows;
  std::vector<std::int32_t> acc;
};
QuantScratch& tls_scratch() {
  thread_local QuantScratch s;
  return s;
}

}  // namespace

QuantizedCostModel::QuantizedCostModel(int input_dim,
                                       const PredictorConfig& config)
    : config_(config), input_dim_(input_dim),
      cost_w_("cost_pred.w", config.embed_dim, 1),
      cost_b_("cost_pred.b", 1, 1),
      act_scales_("quant.act_scales", 1, config.tcn_layers + 1) {
  convs_.resize(static_cast<std::size_t>(config.tcn_layers));
  int in = input_dim;
  for (int l = 0; l < config.tcn_layers; ++l) {
    const std::string base = "tcn" + std::to_string(l);
    ConvLayer& c = convs_[static_cast<std::size_t>(l)];
    c.w_self = nn::Parameter(base + ".w_self", in, config.hidden_dim);
    c.w_left = nn::Parameter(base + ".w_left", in, config.hidden_dim);
    c.w_right = nn::Parameter(base + ".w_right", in, config.hidden_dim);
    c.bias = nn::Parameter(base + ".b", 1, config.hidden_dim);
    in = config.hidden_dim;
  }
  proj_.w = nn::Parameter("tcn.proj.w", config.hidden_dim, config.embed_dim);
  proj_.bias = nn::Parameter("tcn.proj.b", 1, config.embed_dim);
  act_scales_.value.fill(1.0f);
}

QuantizedCostModel::QuantizedCostModel(
    const AdaptiveCostPredictor& src, int input_dim,
    const PredictorConfig& config,
    const std::vector<const nn::Tree*>& calibration)
    : QuantizedCostModel(input_dim, config) {
  if (calibration.empty()) {
    throw std::invalid_argument(
        "QuantizedCostModel: calibration set must be non-empty");
  }
  copy_weights_from(src);
  calibrate(calibration);
  requantize();
}

void QuantizedCostModel::copy_weights_from(const AdaptiveCostPredictor& src) {
  std::unordered_map<std::string, const nn::Mat*> by_name;
  for (const nn::Parameter* p : src.parameters()) {
    by_name.emplace(p->name, &p->value);
  }
  const auto take = [&](const std::string& name, nn::Mat& dst) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw std::runtime_error("quantize: source predictor lacks parameter " +
                               name);
    }
    dst = *it->second;
  };
  for (std::size_t l = 0; l < convs_.size(); ++l) {
    const std::string base = "tcn" + std::to_string(l);
    take(base + ".w_self", convs_[l].w_self.value);
    take(base + ".w_left", convs_[l].w_left.value);
    take(base + ".w_right", convs_[l].w_right.value);
    take(base + ".b", convs_[l].bias.value);
  }
  take("tcn.proj.w", proj_.w.value);
  take("tcn.proj.b", proj_.bias.value);
  take("cost_pred.w", cost_w_.value);
  take("cost_pred.b", cost_b_.value);
  scaler_ = src.scaler();
}

void QuantizedCostModel::calibrate(
    const std::vector<const nn::Tree*>& calibration) {
  // fp32 replica forward over the calibration forest, recording the max-abs
  // of every quantized operand's input tensor.
  nn::Workspace& ws = nn::Workspace::tls();
  nn::Mat features;
  std::vector<int> left, right, offsets;
  pack_forest(calibration, input_dim_, features, left, right, offsets);

  nn::Scratch xl(ws, features.rows(), input_dim_);
  nn::Scratch xr(ws, features.rows(), input_dim_);
  nn::Scratch h0(ws, features.rows(), config_.hidden_dim);
  nn::Scratch h1(ws, features.rows(), config_.hidden_dim);
  nn::Mat* cur = &*h0;
  nn::Mat* next = &*h1;
  const nn::Mat* x = &features;
  for (std::size_t l = 0; l < convs_.size(); ++l) {
    ConvLayer& c = convs_[l];
    c.in_scale = nn::quant::tensor_scale(*x);
    gather_children_fp32(*x, left, *xl);
    gather_children_fp32(*x, right, *xr);
    nn::matmul(*x, c.w_self.value, *cur, /*accumulate=*/false, l == 0);
    nn::matmul(*xl, c.w_left.value, *cur, /*accumulate=*/true, l == 0);
    nn::matmul(*xr, c.w_right.value, *cur, /*accumulate=*/true, l == 0);
    nn::add_bias_activate(*cur, c.bias.value, nn::Activation::kLeakyRelu,
                          0.01f, /*mask=*/nullptr);
    x = cur;
    std::swap(cur, next);
  }
  nn::Scratch pooled(ws, static_cast<int>(calibration.size()),
                     config_.hidden_dim);
  pool_forest(*x, calibration, offsets, *pooled);
  proj_.in_scale = nn::quant::tensor_scale(*pooled);

  for (std::size_t l = 0; l < convs_.size(); ++l) {
    act_scales_.value.at(0, static_cast<int>(l)) = convs_[l].in_scale;
  }
  act_scales_.value.at(0, static_cast<int>(convs_.size())) = proj_.in_scale;
}

void QuantizedCostModel::requantize() {
  for (ConvLayer& c : convs_) {
    c.w_scale = nn::quant::per_channel_scales(
        {&c.w_self.value, &c.w_left.value, &c.w_right.value});
    nn::quant::pack_s8_panel(c.w_self.value, c.w_scale, &c.p_self);
    nn::quant::pack_s8_panel(c.w_left.value, c.w_scale, &c.p_left);
    nn::quant::pack_s8_panel(c.w_right.value, c.w_scale, &c.p_right);
    c.deq.resize(c.w_scale.size());
    for (std::size_t j = 0; j < c.w_scale.size(); ++j) {
      c.deq[j] = c.in_scale * c.w_scale[j];
    }
  }
  proj_.w_scale = nn::quant::per_channel_scales({&proj_.w.value});
  nn::quant::pack_s8_panel(proj_.w.value, proj_.w_scale, &proj_.panel);
  proj_.deq.resize(proj_.w_scale.size());
  for (std::size_t j = 0; j < proj_.w_scale.size(); ++j) {
    proj_.deq[j] = proj_.in_scale * proj_.w_scale[j];
  }
}

void QuantizedCostModel::fit(const std::vector<TrainingExample>&,
                             const std::vector<nn::Tree>&) {
  throw std::logic_error(
      "QuantizedCostModel is inference-only; train the fp32 predictor and "
      "re-quantize");
}

double QuantizedCostModel::predict(const nn::Tree& tree) const {
  return predict_batch_ptrs({&tree})[0];
}

std::vector<double> QuantizedCostModel::predict_batch_ptrs(
    const std::vector<const nn::Tree*>& trees) const {
  if (trees.empty()) return {};
  nn::Workspace& ws = nn::Workspace::tls();
  QuantScratch& s = tls_scratch();
  const nn::simd::KernelOps& ops = nn::simd::active();

  nn::Scratch features(ws, 1, 1);
  std::vector<int> left, right, offsets;
  pack_forest(trees, input_dim_, *features, left, right, offsets);
  const int total = features->rows();

  nn::Scratch h0(ws, total, config_.hidden_dim);
  nn::Scratch h1(ws, total, config_.hidden_dim);
  nn::Mat* cur = &*h0;
  nn::Mat* next = &*h1;
  const nn::Mat* x = &*features;
  for (const ConvLayer& c : convs_) {
    const int out = c.bias.value.cols();
    // One quantize+compact pass over the input tensor; all three GEMMs
    // share the compacted rows (the child operands are just row-maps into
    // them) and one exact int32 accumulator.
    nn::quant::quantize_compact(*x, c.in_scale, &s.rows);
    s.acc.assign(static_cast<std::size_t>(total) * out, 0);
    ops.gemm_s8_rows(s.rows.pairs.data(), s.rows.pos.data(),
                     s.rows.row_ptr.data(), nullptr, c.p_self.data.data(),
                     s.acc.data(), total, out, c.p_self.n_pad);
    ops.gemm_s8_rows(s.rows.pairs.data(), s.rows.pos.data(),
                     s.rows.row_ptr.data(), left.data(), c.p_left.data.data(),
                     s.acc.data(), total, out, c.p_left.n_pad);
    ops.gemm_s8_rows(s.rows.pairs.data(), s.rows.pos.data(),
                     s.rows.row_ptr.data(), right.data(),
                     c.p_right.data.data(), s.acc.data(), total, out,
                     c.p_right.n_pad);
    // Dequantize + bias + LeakyReLU. Plain mul+add, not fmaf: this TU is
    // compiled once at baseline flags (fmaf would be a software libcall
    // here), and any fixed scalar expression is equally arm-independent.
    cur->resize(total, out);
    const float* bias = c.bias.value.data();
    for (int i = 0; i < total; ++i) {
      const std::int32_t* arow = s.acc.data() + static_cast<std::size_t>(i) * out;
      float* yrow = cur->data() + static_cast<std::size_t>(i) * out;
      for (int j = 0; j < out; ++j) {
        float v = static_cast<float>(arow[j]) * c.deq[static_cast<std::size_t>(j)] +
                  bias[j];
        if (v < 0.0f) v *= 0.01f;
        yrow[j] = v;
      }
    }
    x = cur;
    std::swap(cur, next);
  }

  nn::Scratch pooled(ws, static_cast<int>(trees.size()), config_.hidden_dim);
  pool_forest(*x, trees, offsets, *pooled);

  // Projection: int8 GEMM, dequant + bias + fused ReLU.
  const int batch = pooled->rows();
  const int embed = config_.embed_dim;
  nn::quant::quantize_compact(*pooled, proj_.in_scale, &s.rows);
  s.acc.assign(static_cast<std::size_t>(batch) * embed, 0);
  ops.gemm_s8_rows(s.rows.pairs.data(), s.rows.pos.data(),
                   s.rows.row_ptr.data(), nullptr, proj_.panel.data.data(),
                   s.acc.data(), batch, embed, proj_.panel.n_pad);
  nn::Scratch emb(ws, batch, embed);
  const float* pbias = proj_.bias.value.data();
  for (int i = 0; i < batch; ++i) {
    const std::int32_t* arow = s.acc.data() + static_cast<std::size_t>(i) * embed;
    float* yrow = emb->data() + static_cast<std::size_t>(i) * embed;
    for (int j = 0; j < embed; ++j) {
      float v = static_cast<float>(arow[j]) *
                    proj_.deq[static_cast<std::size_t>(j)] +
                pbias[j];
      yrow[j] = v > 0.0f ? v : 0.0f;
    }
  }

  // fp32 CostPred head + target un-scaling.
  nn::Scratch preds(ws, batch, 1);
  nn::matmul(*emb, cost_w_.value, *preds);
  std::vector<double> out;
  out.reserve(trees.size());
  const float cb = cost_b_.value.at(0, 0);
  for (int b = 0; b < batch; ++b) {
    out.push_back(
        scaler_.to_cost(static_cast<double>(preds->at(b, 0) + cb)));
  }
  return out;
}

std::size_t QuantizedCostModel::model_bytes() const {
  std::size_t bytes = 0;
  const auto panel_bytes = [](const nn::quant::S8Panel& p) {
    return p.data.size() * sizeof(std::int8_t);
  };
  for (const ConvLayer& c : convs_) {
    bytes += panel_bytes(c.p_self) + panel_bytes(c.p_left) +
             panel_bytes(c.p_right);
    bytes += (c.w_scale.size() + c.deq.size()) * sizeof(float);
    bytes += c.bias.value.size() * sizeof(float);
  }
  bytes += panel_bytes(proj_.panel);
  bytes += (proj_.w_scale.size() + proj_.deq.size()) * sizeof(float);
  bytes += proj_.bias.value.size() * sizeof(float);
  bytes += (cost_w_.value.size() + cost_b_.value.size()) * sizeof(float);
  return bytes;
}

std::vector<nn::Parameter*> QuantizedCostModel::checkpoint_params() {
  std::vector<nn::Parameter*> out;
  for (ConvLayer& c : convs_) {
    out.push_back(&c.w_self);
    out.push_back(&c.w_left);
    out.push_back(&c.w_right);
    out.push_back(&c.bias);
  }
  out.push_back(&proj_.w);
  out.push_back(&proj_.bias);
  out.push_back(&cost_w_);
  out.push_back(&cost_b_);
  out.push_back(&act_scales_);
  return out;
}

void QuantizedCostModel::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(&scaler_.mu), sizeof(scaler_.mu));
  out.write(reinterpret_cast<const char*>(&scaler_.sd), sizeof(scaler_.sd));
  auto params = const_cast<QuantizedCostModel*>(this)->checkpoint_params();
  nn::save_parameters(params, out);
}

void QuantizedCostModel::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  in.read(reinterpret_cast<char*>(&scaler_.mu), sizeof(scaler_.mu));
  in.read(reinterpret_cast<char*>(&scaler_.sd), sizeof(scaler_.sd));
  if (!in) throw std::runtime_error("checkpoint truncated (scaler)");
  nn::load_parameters(checkpoint_params(), in);
  for (std::size_t l = 0; l < convs_.size(); ++l) {
    convs_[l].in_scale = act_scales_.value.at(0, static_cast<int>(l));
  }
  proj_.in_scale = act_scales_.value.at(0, static_cast<int>(convs_.size()));
  requantize();
}

}  // namespace loam::core
