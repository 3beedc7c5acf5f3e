// Lifelong modular learner (LIMAO-style, PAPERS.md): the CostModel is
// partitioned into per-project modules composed at inference behind one
// facade. Each module owns its own feedback journal, its own PR-4 registry
// directory, its own deployment-gate verdicts and its own hot-swap epoch —
// so a retrain triggered by drift on project A reads ONLY A's journal, gates
// ONLY on A's workload, and can only ever swap (or roll back) A's module.
// Project B's converged model is structurally out of reach.
//
// Incremental training: a module's retrain warm-starts from its serving
// checkpoint (registry machinery), freezes the cost scaler so the z-space of
// the learned weights stays fixed, and continues for a short epoch budget on
// the freshest journal window. The monolithic baseline (`modular = false`)
// is the pre-drift status quo this PR measures against: ONE pooled journal,
// ONE model retrained from scratch over every project's records, gated on
// EVERY project and swapped globally.
//
// Determinism (house rule): for a fixed configuration every decision is a
// pure function of the construction inputs — explorer trials, gate replays
// and training are bit-identical at any thread count, and the score/encoding
// caches are keyed by (plan signature, serving registry version) so a hit
// can never change a decision.
#ifndef LOAM_DRIFT_MODULAR_H_
#define LOAM_DRIFT_MODULAR_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "core/gate.h"
#include "core/loam.h"
#include "serve/journal.h"
#include "serve/registry.h"

namespace loam::drift {

struct LearnerConfig {
  // false = monolithic baseline: one pooled journal + one global model.
  bool modular = true;

  core::PredictorConfig predictor;    // full-fit schedule (bootstrap)
  core::EncodingConfig encoding;
  core::ExplorerConfig explorer;
  core::DeploymentGateConfig gate;

  // A module retrains once this many executed records arrived since its last
  // retrain attempt (the monolithic baseline pools the counter).
  int retrain_min_fresh = 48;
  // Freshest-N executed window per modular fit; the monolithic baseline
  // multiplies this by the module count (same per-project budget).
  int window_max_executed = 384;
  // Epoch budget of a warm-start incremental fit (full-fit epochs come from
  // predictor.epochs).
  int incremental_epochs = 8;
  int min_train_examples = 32;  // below this a retrain attempt is skipped

  // Per-module cache sizing (see cache::CacheConfig).
  cache::CacheConfig cache;

  // Durable state root: <state_dir>/<module>/feedback.jnl + .../registry/.
  // Required — journals and registries are file-backed.
  std::string state_dir;
  std::uint64_t seed = 11;
};

struct ModuleStatus {
  std::string key;
  int version = 0;          // serving registry version (0 = native fallback)
  std::int64_t epoch = 0;   // swap epoch (bumped by every applied swap)
  std::uint64_t executed_records = 0;
  std::uint64_t fresh_records = 0;
  int retrains = 0;
  int approvals = 0;
  int rejections = 0;
  int rollbacks = 0;
  int watermark_day = -1;
};

class ModularLearner {
 public:
  explicit ModularLearner(LearnerConfig config);

  bool modular() const { return config_.modular; }
  const LearnerConfig& config() const { return config_; }

  // Registers a project runtime under `key`. The runtime must outlive the
  // learner. Fits the module's encoder normalizers over a deterministic
  // probe workload drawn from the runtime.
  void onboard(const std::string& key, core::ProjectRuntime* runtime);
  // Retires the module: its model stops serving and its journal closes.
  // Registry + journal files stay on disk (an offboarded project's history
  // is auditable, and re-onboarding resumes from it).
  void offboard(const std::string& key);
  bool has_module(const std::string& key) const;
  std::vector<std::string> keys() const;

  struct Decision {
    core::CandidateGeneration generation;
    int chosen = 0;
    int default_index = 0;
    int model_version = 0;  // 0 = served the native default
    bool used_model = false;
  };
  // Full steering path for one query of `key`: explore candidates, score
  // them in one batch with the module's serving model (through the module's
  // caches, keyed by plan signature and serving registry version), pick the
  // argmin; native default when the module has no approved model.
  Decision optimize(const std::string& key, const warehouse::Query& query);

  // Journals the executed decision (encoded chosen plan + realized cost).
  void record_feedback(const std::string& key, const Decision& decision,
                       double cpu_cost, int day);

  struct RetrainReport {
    std::string key;         // "*" for the monolithic global retrain
    bool attempted = false;
    bool incremental = false;
    bool approved = false;
    int version = 0;         // published registry version (0 = skipped)
    double gate_gain = 0.0;
    int examples = 0;
    double train_seconds = 0.0;
  };
  // Runs every retrain whose fresh-record trigger fired. `day` is the
  // current simulation day; gates sample held-out queries from day + 1.
  std::vector<RetrainReport> maybe_retrain(int day);
  // Unconditional retrain of one module (monolithic: pass "*").
  RetrainReport retrain_module(const std::string& key, int day);

  // Durably demotes the module's serving version through its registry
  // (ModelRegistry::mark_rolled_back) and reverts to the latest surviving
  // approved version, or to the native fallback. Returns the version rolled
  // back, 0 if the module was already serving the fallback.
  int rollback_module(const std::string& key);

  ModuleStatus status(const std::string& key) const;
  // Flight-recorder payload: one entry per module (monolithic adds "*").
  std::string state_json() const;

 private:
  struct Module {
    core::ProjectRuntime* runtime = nullptr;
    std::unique_ptr<core::PlanEncoder> encoder;
    std::unique_ptr<core::PlanExplorer> explorer;
    std::unique_ptr<cache::InferenceCache> cache;
    // Modular mode only (the monolithic baseline pools these in shared_):
    std::unique_ptr<serve::FeedbackJournal> journal;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::shared_ptr<const core::AdaptiveCostPredictor> model;
    int version = 0;
    std::int64_t epoch = 0;
    std::uint64_t fresh = 0;
    int retrains = 0, approvals = 0, rejections = 0, rollbacks = 0;
    int watermark_day = -1;
  };
  // Monolithic pool: one journal, one registry, one model for every module.
  struct Shared {
    std::unique_ptr<serve::FeedbackJournal> journal;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::shared_ptr<const core::AdaptiveCostPredictor> model;
    int version = 0;
    std::int64_t epoch = 0;
    std::uint64_t fresh = 0;
    int retrains = 0, approvals = 0, rejections = 0, rollbacks = 0;
    int watermark_day = -1;
  };

  Module& module_at(const std::string& key);
  const Module& module_at(const std::string& key) const;
  RetrainReport retrain_modular_locked(const std::string& key, int day);
  RetrainReport retrain_monolithic_locked(int day);
  void status_into(const std::string& key, const Module& m,
                   ModuleStatus& out) const;

  LearnerConfig config_;
  int feature_dim_ = 0;
  mutable std::mutex mu_;  // guards every member below
  std::map<std::string, Module> modules_;  // ordered => deterministic sweeps
  Shared shared_;
};

}  // namespace loam::drift

#endif  // LOAM_DRIFT_MODULAR_H_
