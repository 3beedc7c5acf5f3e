// Opt-in int8 quantized serving twin of the AdaptiveCostPredictor.
//
// Quantizes the inference path only — PlanEmb tree convolutions and the
// embedding projection run on the int8 VPMADDWD kernels (nn/simd.h) with
// per-channel symmetric weight scales and per-tensor activation scales
// calibrated offline from journal replay plans; the tiny CostPred head and
// the max-pool stay fp32. The domain classifier is training-time machinery
// and is not carried at all.
//
// A QuantizedCostModel is built FROM a trained fp32 predictor (weights are
// copied, then deterministically quantized), published to the model registry
// as an ordinary version with `quantized = 1` metadata, and only ever served
// after the DeploymentGate approves it like any other candidate — so the
// quantized-vs-fp32 decision is a deployment verdict, and the deviance
// monitor's rollback applies for free (see docs/KERNELS.md).
//
// Checkpoints store the fp32 master weights plus the calibrated activation
// scales; load() re-quantizes deterministically, so a reloaded model scores
// bit-identically to the one that was saved, on every dispatch arm (integer
// accumulation is exact; the fp32 dequant epilogue is scalar fmaf code
// shared by all arms).
#ifndef LOAM_CORE_QUANT_MODEL_H_
#define LOAM_CORE_QUANT_MODEL_H_

#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/predictor.h"
#include "nn/quant.h"

namespace loam::core {

class QuantizedCostModel : public CostModel {
 public:
  // Architecture-only constructor (weights come from load()).
  QuantizedCostModel(int input_dim, const PredictorConfig& config);

  // Calibrating constructor: copies the PlanEmb/CostPred weights of a
  // trained fp32 predictor, computes per-channel weight scales, and
  // calibrates per-tensor activation scales from a fp32 forward pass over
  // `calibration` plans (journal replay trees; must be non-empty).
  QuantizedCostModel(const AdaptiveCostPredictor& src, int input_dim,
                     const PredictorConfig& config,
                     const std::vector<const nn::Tree*>& calibration);

  // Inference-only: the quantized twin is derived from a trained fp32
  // model, never trained directly.
  void fit(const std::vector<TrainingExample>& default_plans,
           const std::vector<nn::Tree>& candidate_plans) override;

  double predict(const nn::Tree& tree) const override;
  // Thread-safe (all scratch is thread-local), same contract as the fp32
  // batched path: one cost per tree, input order.
  std::vector<double> predict_batch_ptrs(
      const std::vector<const nn::Tree*>& trees) const override;

  std::size_t model_bytes() const override;
  std::string name() const override { return "LOAM-INT8"; }

  const LogCostScaler& scaler() const { return scaler_; }

  // Checkpointing: same envelope as the fp32 predictor (scaler, then the
  // LOAMNN2 parameter block over fp32 masters + activation scales).
  void save(const std::string& path) const;
  void load(const std::string& path);

 private:
  struct ConvLayer {
    nn::Parameter w_self, w_left, w_right, bias;  // fp32 masters
    std::vector<float> w_scale;                   // joint per-channel
    std::vector<float> deq;                       // in_scale * w_scale[j]
    nn::quant::S8Panel p_self, p_left, p_right;
    float in_scale = 1.0f;  // per-tensor activation scale
  };
  struct DenseLayer {
    nn::Parameter w, bias;
    std::vector<float> w_scale;
    std::vector<float> deq;
    nn::quant::S8Panel panel;
    float in_scale = 1.0f;
  };

  void copy_weights_from(const AdaptiveCostPredictor& src);
  void calibrate(const std::vector<const nn::Tree*>& calibration);
  // Rebuilds every int8 panel from the fp32 masters + current scales.
  void requantize();
  std::vector<nn::Parameter*> checkpoint_params();

  PredictorConfig config_;
  int input_dim_ = 0;
  LogCostScaler scaler_;
  std::vector<ConvLayer> convs_;
  DenseLayer proj_;                     // int8, fused ReLU
  nn::Parameter cost_w_, cost_b_;       // fp32 CostPred head
  nn::Parameter act_scales_;            // [1, layers+1], persisted
};

}  // namespace loam::core

#endif  // LOAM_CORE_QUANT_MODEL_H_
