// One-stop LOAM pipeline (Section 3): bundles a project's live substrate
// (catalog, native optimizer, cluster, executor, historical repository),
// drives history simulation, builds training data, trains the adaptive cost
// predictor, and serves steered query optimization. Also provides the shared
// evaluation harness used by every experiment driver.
#ifndef LOAM_CORE_LOAM_H_
#define LOAM_CORE_LOAM_H_

#include <memory>
#include <vector>

#include "cache/cache.h"
#include "core/baselines.h"
#include "core/encoding.h"
#include "core/explorer.h"
#include "core/inference.h"
#include "core/predictor.h"
#include "core/scorer.h"
#include "core/selector.h"
#include "warehouse/flighting.h"
#include "warehouse/native_optimizer.h"
#include "warehouse/repository.h"
#include "warehouse/workload.h"

namespace loam::core {

struct RuntimeConfig {
  warehouse::ClusterConfig cluster;
  warehouse::ExecutorConfig executor;
  std::uint64_t seed = 1;
};

// The live substrate of one project: everything MaxCompute would host.
class ProjectRuntime {
 public:
  explicit ProjectRuntime(const warehouse::ProjectArchetype& archetype,
                          RuntimeConfig config = RuntimeConfig());

  // Runs `days` of production traffic: each query is optimized with default
  // knobs, executed on the shared cluster, and logged into the repository.
  // `max_queries_per_day` caps simulation cost.
  void simulate_history(int days, int max_queries_per_day = 1 << 30);

  // Fresh (unexecuted) workload for held-out days.
  std::vector<warehouse::Query> make_queries(int first_day, int last_day,
                                             int max_queries);

  warehouse::Project& project() { return project_; }
  const warehouse::Project& project() const { return project_; }
  warehouse::Catalog& catalog() { return project_.catalog; }
  const warehouse::NativeOptimizer& optimizer() const { return *optimizer_; }
  warehouse::QueryRepository& repository() { return repository_; }
  const warehouse::QueryRepository& repository() const { return repository_; }
  warehouse::Cluster& cluster() { return cluster_; }
  const std::vector<warehouse::EnvFeatures>& cluster_env_history() const {
    return cluster_env_history_;
  }
  const RuntimeConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

 private:
  RuntimeConfig config_;
  warehouse::WorkloadGenerator generator_;
  warehouse::Project project_;
  std::unique_ptr<warehouse::NativeOptimizer> optimizer_;
  warehouse::Cluster cluster_;
  warehouse::Executor executor_;
  warehouse::QueryRepository repository_;
  std::vector<warehouse::EnvFeatures> cluster_env_history_;
  Rng rng_;
};

// Builds the Filter input from a project's logged history.
WorkloadSummary summarize_workload(const ProjectRuntime& runtime, int first_day,
                                   int last_day, int lifespan_days = 30);

// Which execution measurement the cost model regresses. LOAM predicts CPU
// cost: end-to-end latency is dominated by transient queuing/network effects
// and makes a far noisier label (Section 3's design rationale, ablated in
// bench_ablation_cost_metric).
enum class CostTarget { kCpuCost, kLatency };

struct LoamConfig {
  PredictorConfig predictor;
  EncodingConfig encoding;
  PlanExplorer::Config explorer;
  EnvInferenceStrategy strategy = EnvInferenceStrategy::kRepresentativeMean;
  CostTarget cost_target = CostTarget::kCpuCost;
  int train_first_day = 0;
  int train_last_day = 24;
  int max_train_queries = 10000;   // Section 7.1 cap
  // Queries sampled from the training window whose candidate plans feed the
  // domain-adversarial objective (generated, never executed).
  int candidate_sample_queries = 150;
  // Memoized inference (loam::cache): encoded-plan + score caches on the
  // selection path, plus the encoder's node-row memo (with_row_cache).
  // Purely a performance knob — selections are bit-identical with every
  // capacity 0, which turns the caches off.
  cache::CacheConfig cache;
};

// Training corpus shared by LOAM and all baselines.
struct TrainingData {
  std::vector<TrainingExample> default_plans;
  std::vector<nn::Tree> candidate_plans;
};

// A deployed LOAM (or baseline) instance for one project.
class LoamDeployment {
 public:
  // `model == nullptr` instantiates the adaptive TCN predictor from config.
  LoamDeployment(ProjectRuntime* runtime, LoamConfig config,
                 std::unique_ptr<CostModel> model = nullptr);

  // Builds training data from the historical repository and fits the model.
  void train();

  struct Choice {
    int chosen = 0;
    std::vector<double> predicted;
    CandidateGeneration generation;
    double inference_seconds = 0.0;
  };
  // Full steering path: explore candidates, predict each cost under the
  // configured environment strategy, pick the argmin.
  Choice optimize(const warehouse::Query& query) const;
  // Selection among pre-generated candidates (used by the evaluation harness
  // so all models see identical candidate sets).
  int select(const CandidateGeneration& generation,
             std::vector<double>* predictions = nullptr) const;
  // Same, overriding the environment-inference strategy (Section 7.2.5's
  // LOAM / LOAM-CE / LOAM-CB comparisons share one trained model).
  int select_with_strategy(const CandidateGeneration& generation,
                           EnvInferenceStrategy strategy,
                           std::vector<double>* predictions = nullptr) const;

  CostModel& model() { return *model_; }
  const CostModel& model() const { return *model_; }
  const PlanEncoder& encoder() const { return encoder_; }
  const TrainingData& data() const { return data_; }
  const EnvContext& env_context() const { return env_context_; }
  const LoamConfig& config() const { return config_; }
  double train_seconds() const { return train_seconds_; }
  // Score/encoding memo of the selection path (exposed for tests + bench).
  const cache::InferenceCache& inference_cache() const { return infer_cache_; }
  // Local model epoch: bumped by every (re)train so score keys from an older
  // model can never hit again.
  std::int64_t model_epoch() const { return model_epoch_; }

 private:
  ProjectRuntime* runtime_;
  LoamConfig config_;
  PlanEncoder encoder_;
  PlanExplorer explorer_;
  std::unique_ptr<CostModel> model_;
  TrainingData data_;
  EnvContext env_context_;
  double train_seconds_ = 0.0;
  // Thread-safe internally; mutable because select() is logically const —
  // memo contents never change what is selected.
  mutable cache::InferenceCache infer_cache_;
  std::int64_t model_epoch_ = 0;
};

// ---------------------------------------------------------------------------
// Evaluation harness
// ---------------------------------------------------------------------------

// One test query with its candidate set and paired flighting replays:
// cost_samples[c][r] is candidate c's cost under the r-th realized
// environment, with all candidates sharing environment r — the construction
// Theorem 1 reasons about.
struct EvaluatedQuery {
  warehouse::Query query;
  CandidateGeneration generation;
  std::vector<std::vector<double>> cost_samples;
  std::vector<double> mean_cost;
  int default_index = 0;
};

// Replays every plan `runs` times under paired environments. Lives with the
// flighting substrate it drives (warehouse::paired_replay); re-exported here
// for the evaluation drivers.
using warehouse::paired_replay;

// Explores + replays every test query. `num_threads` parallelizes over
// queries (1 = the legacy serial loop, 0 = hardware concurrency); per-query
// seeds are derived by index so the result — and therefore every gate
// verdict computed from it — is bit-identical at any thread count.
std::vector<EvaluatedQuery> prepare_evaluation(
    ProjectRuntime& runtime, const std::vector<warehouse::Query>& test_queries,
    const PlanExplorer::Config& explorer_config, int runs, std::uint64_t seed,
    int num_threads = 1);

}  // namespace loam::core

#endif  // LOAM_CORE_LOAM_H_
