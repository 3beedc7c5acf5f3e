#include "core/predictor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "nn/serialize.h"
#include "obs/obs.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace loam::core {

namespace {

// Minibatches are always decomposed into this many gradient shards — a model
// constant, NOT the thread count — so the floating-point reduction tree is
// the same no matter how many threads execute the shards. Batch item b goes
// to shard b % kGradShards; shards reduce into the master gradients in
// ascending shard order. That is what makes trained weights bit-identical
// for any num_threads.
constexpr int kGradShards = 8;

int resolve_threads(int requested) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::max(1, requested);
}

}  // namespace

void LogCostScaler::fit(const std::vector<TrainingExample>& examples) {
  if (examples.empty()) return;
  std::vector<double> logs;
  logs.reserve(examples.size());
  for (const auto& e : examples) logs.push_back(std::log1p(std::max(0.0, e.cpu_cost)));
  mu = mean(logs);
  sd = std::max(1e-6, stddev(logs));
}

double LogCostScaler::to_z(double cost) const {
  return (std::log1p(std::max(0.0, cost)) - mu) / sd;
}

double LogCostScaler::to_cost(double z) const {
  return std::expm1(std::clamp(z * sd + mu, -30.0, 30.0));
}

std::string TrainingDiagnostics::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("final_cost_loss", final_cost_loss);
  w.kv("final_domain_loss", final_domain_loss);
  w.kv("final_domain_accuracy", final_domain_accuracy);
  w.kv("train_seconds", train_seconds);
  w.kv("epochs_run", epochs_run);
  w.end_object();
  return w.str();
}

AdaptiveCostPredictor::AdaptiveCostPredictor(int input_dim, PredictorConfig config)
    : config_(config) {
  Rng rng(config.seed);
  nn::TreeConvNet::Config tcn;
  tcn.input_dim = input_dim;
  tcn.hidden_dim = config.hidden_dim;
  tcn.embed_dim = config.embed_dim;
  tcn.layers = config.tcn_layers;
  plan_emb_ = nn::TreeConvNet(tcn, rng);
  cost_pred_ = nn::Linear("cost_pred", config.embed_dim, 1, rng);
  dom_fc1_ = nn::Linear("dom_fc1", config.embed_dim, config.domain_hidden, rng,
                        nn::Activation::kRelu);
  dom_fc2_ = nn::Linear("dom_fc2", config.domain_hidden, 2, rng);

  all_params_ = plan_emb_.parameters();
  for (auto* layer : {&cost_pred_, &dom_fc1_, &dom_fc2_}) {
    for (nn::Parameter* p : layer->parameters()) all_params_.push_back(p);
  }
  nn::AdamOptions opts;
  opts.lr = config.lr;
  optimizer_ = std::make_unique<nn::Adam>(all_params_, opts);
}

double AdaptiveCostPredictor::grl_lambda(double progress) {
  return 2.0 / (1.0 + std::exp(-10.0 * progress)) - 1.0;
}

void AdaptiveCostPredictor::fit(const std::vector<TrainingExample>& default_plans,
                                const std::vector<nn::Tree>& candidate_plans) {
  static obs::Counter* const c_fits =
      obs::Registry::instance().counter("loam.predictor.fit_calls");
  static obs::Counter* const c_epochs =
      obs::Registry::instance().counter("loam.predictor.fit_epochs");
  static obs::Counter* const c_examples =
      obs::Registry::instance().counter("loam.predictor.fit_examples");
  static obs::Gauge* const g_cost_loss =
      obs::Registry::instance().gauge("loam.predictor.last_cost_loss");
  obs::Span fit_span(obs::Cat::kPredictor, "fit",
                     static_cast<std::int64_t>(default_plans.size()));
  const auto start = std::chrono::steady_clock::now();
  if (default_plans.empty()) return;
  c_fits->add();
  c_examples->add(default_plans.size());
  if (!(scaler_frozen_ && scaler_fitted_)) scaler_.fit(default_plans);
  scaler_fitted_ = true;

  Rng rng(config_.seed ^ 0xabcdefull);
  std::vector<int> order(default_plans.size());
  std::iota(order.begin(), order.end(), 0);

  const bool adversarial = config_.adversarial && !candidate_plans.empty();

  // Running loss magnitudes used to auto-balance w_c and w_d (Eq. 1).
  double ema_cost = 1.0, ema_dom = 1.0;

  // Data-parallel training state. Each gradient shard gets a full replica of
  // the network: values are synced from the master before every batch,
  // gradients and diagnostics accumulate shard-locally, and the shards are
  // reduced into the master in ascending shard order after the batch. The
  // shard decomposition is fixed (kGradShards), so the result does not
  // depend on how many threads execute the shards.
  struct Shard {
    nn::TreeConvNet plan_emb;
    nn::Linear cost_pred;
    nn::Linear dom_fc1;
    nn::Linear dom_fc2;
    nn::GradientReversal grl;
    std::vector<nn::Parameter*> params;  // same order as all_params_
    double cost_loss = 0.0;
    double dom_loss = 0.0;
    int dom_correct = 0;
    int dom_total = 0;
  };
  std::vector<Shard> shards(kGradShards);
  for (Shard& s : shards) {
    s.plan_emb = plan_emb_;
    s.cost_pred = cost_pred_;
    s.dom_fc1 = dom_fc1_;
    s.dom_fc2 = dom_fc2_;
    s.params = s.plan_emb.parameters();
    for (auto* layer : {&s.cost_pred, &s.dom_fc1, &s.dom_fc2}) {
      for (nn::Parameter* p : layer->parameters()) s.params.push_back(p);
    }
  }

  const int num_threads = resolve_threads(config_.num_threads);
  std::unique_ptr<util::ThreadPool> pool;
  if (num_threads > 1) {
    // The caller participates in parallel_for, so nt threads = nt-1 workers.
    pool = std::make_unique<util::ThreadPool>(num_threads - 1);
  }

  std::vector<int> cand_idx;  // candidate draws, pre-drawn serially per batch

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::Span epoch_span(obs::Cat::kPredictor, "fit_epoch", epoch);
    rng.shuffle(order);
    const double progress = static_cast<double>(epoch) / std::max(1, config_.epochs - 1);
    const double lambda = adversarial ? grl_lambda(progress) : 0.0;
    grl_.set_lambda(static_cast<float>(lambda));
    for (Shard& s : shards) s.grl.set_lambda(static_cast<float>(lambda));

    double epoch_cost_loss = 0.0, epoch_dom_loss = 0.0;
    int dom_correct = 0, dom_total = 0;

    for (std::size_t pos = 0; pos < order.size(); pos += config_.batch_size) {
      const std::size_t end =
          std::min(order.size(), pos + static_cast<std::size_t>(config_.batch_size));
      const int batch = static_cast<int>(end - pos);

      // Balance the two loss terms by their running magnitudes.
      const double w_d =
          std::clamp(0.5 * ema_cost / std::max(1e-6, ema_dom), 0.02, 10.0);

      // Candidate draws come from the single master Rng, before the shards
      // fan out, so the stream never depends on shard execution order (and
      // matches what the historical serial loop drew).
      cand_idx.clear();
      if (adversarial) {
        for (int i = 0; i < batch; ++i) {
          cand_idx.push_back(static_cast<int>(rng.uniform_int(
              0, static_cast<std::int64_t>(candidate_plans.size()) - 1)));
        }
      }

      for (Shard& s : shards) {
        for (std::size_t p = 0; p < s.params.size(); ++p) {
          s.params[p]->value = all_params_[p]->value;
          s.params[p]->grad.zero();
        }
        s.cost_loss = 0.0;
        s.dom_loss = 0.0;
        s.dom_correct = 0;
        s.dom_total = 0;
      }

      auto run_shard = [&](std::size_t si) {
        Shard& sh = shards[si];
        for (int bi = static_cast<int>(si); bi < batch; bi += kGradShards) {
          const TrainingExample& ex = default_plans[static_cast<std::size_t>(
              order[pos + static_cast<std::size_t>(bi)])];
          nn::Mat emb = sh.plan_emb.forward(ex.tree);
          nn::Mat pred = sh.cost_pred.forward(emb);

          nn::Mat grad_pred;
          const double z = scaler_.to_z(ex.cpu_cost);
          sh.cost_loss += nn::mse_loss(pred, {static_cast<float>(z)}, grad_pred);
          grad_pred.scale_inplace(1.0f / static_cast<float>(batch));
          nn::Mat grad_emb = sh.cost_pred.backward(grad_pred);

          if (adversarial) {
            // Domain path, label 0 = default plan.
            nn::Mat logits =
                sh.dom_fc2.forward(sh.dom_fc1.forward(sh.grl.forward(emb)));
            nn::Mat grad_logits;
            sh.dom_loss += nn::softmax_cross_entropy(logits, {0}, grad_logits);
            sh.dom_correct += logits.at(0, 0) > logits.at(0, 1) ? 1 : 0;
            ++sh.dom_total;
            grad_logits.scale_inplace(static_cast<float>(w_d / batch));
            nn::Mat grad_dom =
                sh.grl.backward(sh.dom_fc1.backward(sh.dom_fc2.backward(grad_logits)));
            grad_emb.add_inplace(grad_dom);
          }
          sh.plan_emb.backward(grad_emb);
        }

        if (adversarial) {
          // Candidate-plan half of the domain objective (label 1). The plans
          // are never executed — only their embeddings matter.
          for (int bi = static_cast<int>(si); bi < batch; bi += kGradShards) {
            const nn::Tree& tree =
                candidate_plans[static_cast<std::size_t>(cand_idx[static_cast<std::size_t>(bi)])];
            nn::Mat emb = sh.plan_emb.forward(tree);
            nn::Mat logits =
                sh.dom_fc2.forward(sh.dom_fc1.forward(sh.grl.forward(emb)));
            nn::Mat grad_logits;
            sh.dom_loss += nn::softmax_cross_entropy(logits, {1}, grad_logits);
            sh.dom_correct += logits.at(0, 1) > logits.at(0, 0) ? 1 : 0;
            ++sh.dom_total;
            grad_logits.scale_inplace(static_cast<float>(w_d / batch));
            nn::Mat grad_emb =
                sh.grl.backward(sh.dom_fc1.backward(sh.dom_fc2.backward(grad_logits)));
            sh.plan_emb.backward(grad_emb);
          }
        }
      };

      if (pool) {
        pool->parallel_for(static_cast<std::size_t>(kGradShards), run_shard);
      } else {
        for (std::size_t si = 0; si < kGradShards; ++si) run_shard(si);
      }

      // Fixed-order reduction: shard 0 first, shard kGradShards-1 last, for
      // gradients and diagnostics alike.
      optimizer_->zero_grad();
      for (const Shard& s : shards) {
        for (std::size_t p = 0; p < s.params.size(); ++p) {
          all_params_[p]->grad.add_inplace(s.params[p]->grad);
        }
        epoch_cost_loss += s.cost_loss;
        epoch_dom_loss += s.dom_loss;
        dom_correct += s.dom_correct;
        dom_total += s.dom_total;
      }
      optimizer_->step();
    }

    const double n_default = static_cast<double>(default_plans.size());
    diagnostics_.final_cost_loss = epoch_cost_loss / n_default;
    if (dom_total > 0) {
      diagnostics_.final_domain_loss = epoch_dom_loss / dom_total;
      diagnostics_.final_domain_accuracy =
          static_cast<double>(dom_correct) / dom_total;
    }
    ema_cost = 0.7 * ema_cost + 0.3 * diagnostics_.final_cost_loss;
    if (dom_total > 0) {
      ema_dom = 0.7 * ema_dom + 0.3 * diagnostics_.final_domain_loss;
    }
    optimizer_->decay_lr(config_.lr_decay);
    diagnostics_.epochs_run = epoch + 1;
    c_epochs->add();
    g_cost_loss->set(diagnostics_.final_cost_loss);
  }
  diagnostics_.train_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double AdaptiveCostPredictor::predict(const nn::Tree& tree) const {
  nn::Mat emb = plan_emb_.forward(tree);
  nn::Mat pred = cost_pred_.forward(emb);
  return scaler_.to_cost(static_cast<double>(pred.at(0, 0)));
}

std::vector<double> AdaptiveCostPredictor::predict_batch_ptrs(
    const std::vector<const nn::Tree*>& ptrs) const {
  if (ptrs.empty()) return {};
  static obs::Counter* const c_calls =
      obs::Registry::instance().counter("loam.predictor.predict_batch_calls");
  static obs::Histogram* const h_seconds = obs::Registry::instance().histogram(
      "loam.predictor.predict_batch_seconds",
      obs::Histogram::exponential_bounds(1e-6, 4.0, 10));
  static obs::Histogram* const h_size = obs::Registry::instance().histogram(
      "loam.predictor.predict_batch_size",
      obs::Histogram::exponential_bounds(1.0, 2.0, 10));
  obs::Span span(obs::Cat::kPredictor, "predict_batch",
                 static_cast<std::int64_t>(ptrs.size()));
  obs::ScopedTimer timer(h_seconds);
  c_calls->add();
  h_size->observe(static_cast<double>(ptrs.size()));
  nn::Mat embs = plan_emb_.forward_batch(ptrs);   // [batch, embed]
  nn::Mat preds;
  cost_pred_.infer_into(embs, preds);             // [batch, 1], cache-free
  std::vector<double> out;
  out.reserve(ptrs.size());
  for (int b = 0; b < preds.rows(); ++b) {
    out.push_back(scaler_.to_cost(static_cast<double>(preds.at(b, 0))));
  }
  return out;
}

std::vector<float> AdaptiveCostPredictor::embed(const nn::Tree& tree) const {
  nn::Mat emb = plan_emb_.forward(tree);
  auto row = emb.row(0);
  return {row.begin(), row.end()};
}

double AdaptiveCostPredictor::domain_probability(const nn::Tree& tree) const {
  nn::Mat emb = plan_emb_.forward(tree);
  nn::Mat logits = dom_fc2_.forward(dom_fc1_.forward(grl_.forward(emb)));
  const nn::Mat probs = nn::row_softmax(logits);
  return static_cast<double>(probs.at(0, 1));
}

std::size_t AdaptiveCostPredictor::model_bytes() const {
  return optimizer_->parameter_bytes();
}

void AdaptiveCostPredictor::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  // Target scaler first, then the weights.
  out.write(reinterpret_cast<const char*>(&scaler_.mu), sizeof(scaler_.mu));
  out.write(reinterpret_cast<const char*>(&scaler_.sd), sizeof(scaler_.sd));
  nn::save_parameters(all_params_, out);
}

void AdaptiveCostPredictor::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  in.read(reinterpret_cast<char*>(&scaler_.mu), sizeof(scaler_.mu));
  in.read(reinterpret_cast<char*>(&scaler_.sd), sizeof(scaler_.sd));
  if (!in) throw std::runtime_error("checkpoint truncated (scaler)");
  nn::load_parameters(all_params_, in);
  // A loaded checkpoint carries a fitted scaler: a frozen incremental fit
  // may continue from it without re-basing the target space.
  scaler_fitted_ = true;
}

}  // namespace loam::core
