// The adaptive cost predictor (Section 4, Fig. 3):
//
//   PlanEmb  — a Tree Convolutional Network mapping the vectorized plan tree
//              to an n-dimensional embedding e_P;
//   CostPred — a fully connected head regressing normalized log CPU cost;
//   DomClf   — a two-layer domain classifier behind a Gradient Reversal
//              Layer distinguishing default-plan from candidate-plan
//              embeddings.
//
// Training jointly minimizes Eq. (1): the cost loss over historical default
// plans plus the (gradient-reversed) domain loss over default ∪ candidate
// plans. Candidate plans are generated but NEVER executed; the adversarial
// game pushes PlanEmb toward domain-invariant representations so CostPred
// generalizes to candidates without any conventional refinement
// (Challenge 3). Setting `adversarial = false` yields the LOAM-NA ablation
// of Section 7.2.3.
#ifndef LOAM_CORE_PREDICTOR_H_
#define LOAM_CORE_PREDICTOR_H_

#include <memory>
#include <string>

#include "core/cost_model.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/tree_conv.h"

namespace loam::core {

struct PredictorConfig {
  int hidden_dim = 48;
  int embed_dim = 32;
  // Three stacked tree convolutions: the receptive field then spans
  // scan-to-join-to-exchange neighbourhoods, which is what lets the model
  // relate an operator's cost to the inputs feeding it.
  int tcn_layers = 3;
  int domain_hidden = 16;
  int epochs = 24;
  int batch_size = 16;
  double lr = 0.01;        // Section 7.1: initial learning rate 0.01,
  double lr_decay = 0.99;  // exponential decay 0.99 per epoch
  bool adversarial = true;
  std::uint64_t seed = 7;
  // Training threads: 1 = serial (no pool), 0 = hardware_concurrency, same
  // convention as ExplorerConfig. A THROUGHPUT knob only: minibatches are
  // always decomposed into the same fixed set of gradient shards and reduced
  // in shard order, so trained weights are bit-identical for every value.
  int num_threads = 1;
};

struct TrainingDiagnostics {
  double final_cost_loss = 0.0;
  double final_domain_loss = 0.0;
  double final_domain_accuracy = 0.0;  // of DomClf on the last epoch
  double train_seconds = 0.0;
  int epochs_run = 0;

  std::string to_json() const;
};

class AdaptiveCostPredictor : public CostModel {
 public:
  AdaptiveCostPredictor(int input_dim, PredictorConfig config = PredictorConfig());

  void fit(const std::vector<TrainingExample>& default_plans,
           const std::vector<nn::Tree>& candidate_plans) override;
  double predict(const nn::Tree& tree) const override;
  // Batched path: one TCN forest pass + one CostPred pass for the whole
  // candidate set, bit-identical per row to predict().
  std::vector<double> predict_batch_ptrs(
      const std::vector<const nn::Tree*>& trees) const override;
  std::size_t model_bytes() const override;
  std::string name() const override {
    return config_.adversarial ? "LOAM" : "LOAM-NA";
  }

  // Plan embedding e_P (exposed for tests and for embedding-distribution
  // analyses of the adversarial objective).
  std::vector<float> embed(const nn::Tree& tree) const;
  // Domain probability that `tree` is a candidate plan, from DomClf.
  double domain_probability(const nn::Tree& tree) const;

  const TrainingDiagnostics& diagnostics() const { return diagnostics_; }
  const LogCostScaler& scaler() const { return scaler_; }

  // Lifelong (incremental) training support. A frozen scaler keeps the
  // z-space of previously learned weights fixed, so a warm-start fit on a
  // fresh feedback window UPDATES the model instead of silently re-basing
  // its regression target; the first fit (or a load) still establishes the
  // scaler. set_epochs bounds how long such an update runs — incremental
  // passes converge in a fraction of a from-scratch schedule.
  void set_scaler_frozen(bool frozen) { scaler_frozen_ = frozen; }
  bool scaler_frozen() const { return scaler_frozen_; }
  void set_epochs(int epochs) { config_.epochs = epochs < 1 ? 1 : epochs; }
  // All trainable parameters in registration order (exposed so tests can
  // assert bit-identity of trained weights across thread counts).
  const std::vector<nn::Parameter*>& parameters() const { return all_params_; }

  // Checkpointing: persists the target scaler and every parameter; load
  // verifies architecture compatibility (names and shapes).
  void save(const std::string& path) const;
  void load(const std::string& path);

 private:
  // Ganin & Lempitsky's schedule: lambda(p) = 2/(1+exp(-10 p)) - 1.
  static double grl_lambda(double progress);

  PredictorConfig config_;
  LogCostScaler scaler_;
  bool scaler_frozen_ = false;
  bool scaler_fitted_ = false;
  mutable nn::TreeConvNet plan_emb_;
  mutable nn::Linear cost_pred_;
  nn::GradientReversal grl_;
  mutable nn::Linear dom_fc1_;  // carries the fused ReLU
  mutable nn::Linear dom_fc2_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::vector<nn::Parameter*> all_params_;
  TrainingDiagnostics diagnostics_;
};

}  // namespace loam::core

#endif  // LOAM_CORE_PREDICTOR_H_
