#include "core/loam.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace loam::core {

using warehouse::EnvFeatures;
using warehouse::Plan;
using warehouse::PlannerKnobs;
using warehouse::Query;
using warehouse::QueryRecord;

ProjectRuntime::ProjectRuntime(const warehouse::ProjectArchetype& archetype,
                               RuntimeConfig config)
    : config_(config),
      generator_(config.seed ^ 0x9a7e11ull),
      project_(generator_.make_project(archetype)),
      cluster_([&] {
        warehouse::ClusterConfig c = config.cluster;
        c.machines = archetype.cluster_machines;
        return c;
      }(), config.seed ^ 0xc157e2ull),
      executor_(&cluster_, config.executor),
      rng_(config.seed ^ 0x5eedull) {
  optimizer_ = std::make_unique<warehouse::NativeOptimizer>(project_.catalog);
}

void ProjectRuntime::simulate_history(int days, int max_queries_per_day) {
  for (int day = 0; day < days; ++day) {
    std::vector<Query> queries = generator_.day_workload(project_, day, rng_);
    if (static_cast<int>(queries.size()) > max_queries_per_day) {
      queries.resize(static_cast<std::size_t>(max_queries_per_day));
    }
    for (Query& q : queries) {
      QueryRecord record;
      record.query = q;
      record.knobs = PlannerKnobs();  // shipping defaults
      record.is_default = true;
      record.day = day;
      record.plan = optimizer_->optimize(q, record.knobs);
      record.exec = executor_.execute(record.plan, rng_);
      repository_.log(std::move(record));
      // Telemetry archive of cluster-wide averages (LOAM-CE's data source).
      cluster_env_history_.push_back(
          EnvFeatures::from_load(cluster_.cluster_average()));
      // Idle gaps between queries.
      cluster_.advance(rng_.uniform(20.0, 200.0));
    }
    // Overnight drift.
    cluster_.advance(3600.0);
  }
}

std::vector<Query> ProjectRuntime::make_queries(int first_day, int last_day,
                                                int max_queries) {
  std::vector<Query> out;
  for (int day = first_day; day <= last_day; ++day) {
    std::vector<Query> batch = generator_.day_workload(project_, day, rng_);
    for (Query& q : batch) {
      if (static_cast<int>(out.size()) >= max_queries) return out;
      out.push_back(std::move(q));
    }
  }
  return out;
}

WorkloadSummary summarize_workload(const ProjectRuntime& runtime, int first_day,
                                   int last_day, int lifespan_days) {
  WorkloadSummary s;
  s.project = runtime.project().name;
  s.queries_per_day.assign(static_cast<std::size_t>(last_day - first_day + 1), 0);
  int stable = 0, total = 0;
  for (const QueryRecord& r : runtime.repository().records()) {
    if (r.day < first_day || r.day > last_day) continue;
    ++s.queries_per_day[static_cast<std::size_t>(r.day - first_day)];
    ++total;
    bool all_stable = true;
    for (int t : r.query.tables) {
      if (runtime.project().catalog.table(t).lifespan_days() <= lifespan_days) {
        all_stable = false;
        break;
      }
    }
    if (all_stable) ++stable;
  }
  s.stable_table_ratio = total > 0 ? static_cast<double>(stable) / total : 0.0;
  return s;
}

// ---------------------------------------------------------------------------
// LoamDeployment
// ---------------------------------------------------------------------------

namespace {

// The encoder's node-row memo follows the deployment's cache switch: rows
// repeat massively across a workload's plans, and memoized rows are
// bit-identical to recomputed ones, so there is no reason to configure it
// separately.
EncodingConfig with_row_cache(EncodingConfig enc, const cache::CacheConfig& cc) {
  if (cc.enabled && enc.row_cache_capacity == 0) {
    enc.row_cache_capacity = cc.encoding_capacity;
  }
  if (!cc.enabled) enc.row_cache_capacity = 0;
  return enc;
}

}  // namespace

LoamDeployment::LoamDeployment(ProjectRuntime* runtime, LoamConfig config,
                               std::unique_ptr<CostModel> model)
    : runtime_(runtime),
      config_(config),
      encoder_(&runtime->project().catalog,
               with_row_cache(config.encoding, config.cache)),
      explorer_(&runtime->optimizer(), config.explorer),
      model_(std::move(model)),
      infer_cache_("deploy", config.cache) {
  if (model_ == nullptr) {
    model_ = std::make_unique<AdaptiveCostPredictor>(encoder_.feature_dim(),
                                                     config_.predictor);
  }
}

void LoamDeployment::train() {
  static obs::Gauge* const g_train_seconds =
      obs::Registry::instance().gauge("loam.pipeline.train_seconds");
  obs::Span span(obs::Cat::kPipeline, "train");
  const auto start = std::chrono::steady_clock::now();
  const warehouse::QueryRepository& repo = runtime_->repository();

  // Deduplicated training window, capped as in Section 7.1.
  std::vector<const QueryRecord*> records =
      repo.deduplicated(config_.train_first_day, config_.train_last_day);
  if (static_cast<int>(records.size()) > config_.max_train_queries) {
    records.resize(static_cast<std::size_t>(config_.max_train_queries));
  }

  // Environment context for inference-time encoding.
  env_context_ = build_env_context(repo, runtime_->cluster_env_history(),
                                   runtime_->cluster());

  // Fit the numeric normalizers on the training plans.
  std::vector<const Plan*> plans;
  plans.reserve(records.size());
  for (const QueryRecord* r : records) plans.push_back(&r->plan);
  encoder_.fit_normalizers(plans);

  // Default plans with observed costs, encoded with the environments their
  // stages actually experienced.
  data_.default_plans.clear();
  data_.default_plans.reserve(records.size());
  for (const QueryRecord* r : records) {
    std::vector<EnvFeatures> stage_envs(r->exec.stages.size());
    for (const warehouse::StageExecution& s : r->exec.stages) {
      if (s.stage_id >= 0) stage_envs[static_cast<std::size_t>(s.stage_id)] = s.env;
    }
    TrainingExample ex;
    ex.tree = encoder_.encode(r->plan, &stage_envs, std::nullopt);
    ex.cpu_cost = config_.cost_target == CostTarget::kLatency
                      ? r->exec.latency_s
                      : r->exec.cpu_cost;
    data_.default_plans.push_back(std::move(ex));
  }

  // Candidate plans for the adversarial half of Eq. (1): generated for a
  // sample of training queries, encoded under the representative environment
  // (the encoding they will see at serving time), never executed.
  data_.candidate_plans.clear();
  const int sample = std::min<int>(config_.candidate_sample_queries,
                                   static_cast<int>(records.size()));
  const EnvFeatures rep = env_context_.representative;
  for (int i = 0; i < sample; ++i) {
    const QueryRecord* r = records[static_cast<std::size_t>(
        i * std::max<std::size_t>(1, records.size() / std::max(1, sample)))];
    CandidateGeneration gen = explorer_.explore(r->query);
    for (std::size_t c = 0; c < gen.plans.size(); ++c) {
      if (static_cast<int>(c) == gen.default_index) continue;
      data_.candidate_plans.push_back(
          encoder_.encode(gen.plans[c], nullptr, rep));
    }
  }

  model_->fit(data_.default_plans, data_.candidate_plans);
  // The model changed: bump the epoch so every cached score key goes stale
  // structurally. The encoder also changed (normalizers were refit), which
  // epoch keying does NOT cover — drop the memo tables outright.
  ++model_epoch_;
  infer_cache_.clear();
  train_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  g_train_seconds->set(train_seconds_);
}

int LoamDeployment::select(const CandidateGeneration& generation,
                           std::vector<double>* predictions) const {
  return select_with_strategy(generation, config_.strategy, predictions);
}

int LoamDeployment::select_with_strategy(const CandidateGeneration& generation,
                                         EnvInferenceStrategy strategy,
                                         std::vector<double>* predictions) const {
  static obs::Counter* const c_default =
      obs::Registry::instance().counter("loam.pipeline.selected_default");
  static obs::Counter* const c_steered =
      obs::Registry::instance().counter("loam.pipeline.selected_steered");
  obs::Span span(obs::Cat::kPipeline, "select",
                 static_cast<std::int64_t>(generation.plans.size()));
  EnvFeatures env;
  if (strategy == EnvInferenceStrategy::kClusterInstant) {
    EnvContext ctx = env_context_;
    ctx.cluster_instant =
        EnvFeatures::from_load(runtime_->cluster().cluster_average());
    env = select_env(strategy, ctx);
  } else {
    env = select_env(strategy, env_context_);
  }
  const bool use_env = strategy != EnvInferenceStrategy::kNoEnv;
  // Encode the candidate set and score it with ONE forward pass per model;
  // argmin ties resolve to the first candidate, exactly as the per-plan loop
  // did. With the inference cache on, candidates whose (signature, env,
  // epoch) score is memoized skip both steps, and candidates whose encoding
  // is memoized skip featurization; only the misses enter the batch. Both
  // shortcuts are bit-exact — encode() and predict_batch are deterministic
  // per row, independent of batch composition — so the selected index never
  // depends on cache state.
  const std::optional<EnvFeatures> enc_env =
      use_env ? std::optional<EnvFeatures>(env) : std::nullopt;
  const std::size_t n = generation.plans.size();
  std::vector<double> preds(n, 0.0);
  if (!infer_cache_.enabled()) {
    std::vector<nn::Tree> trees;
    trees.reserve(n);
    for (const Plan& plan : generation.plans) {
      trees.push_back(encoder_.encode(plan, nullptr, enc_env));
    }
    preds = model_->predict_batch(trees);
  } else {
    const double env_vals[4] = {env.cpu_idle, env.io_wait, env.load5_norm,
                                env.mem_usage};
    // The no-env encoding reads none of the four values; give it its own
    // fingerprint so it cannot alias an all-zero environment (harmless — the
    // rows would match — but pointlessly shared).
    const std::uint64_t env_fp =
        use_env ? cache::fingerprint(env_vals) : 0x9e1debull;
    std::vector<std::uint64_t> plan_keys(n, 0);
    std::vector<std::size_t> miss_idx;
    std::vector<std::shared_ptr<const nn::Tree>> miss_trees;
    for (std::size_t i = 0; i < n; ++i) {
      plan_keys[i] = generation.signatures.at(i);
      const std::uint64_t skey =
          cache::InferenceCache::score_key(plan_keys[i], env_fp, model_epoch_);
      if (std::optional<double> hit = infer_cache_.get_score(skey);
          hit.has_value()) {
        preds[i] = *hit;
        continue;
      }
      const std::uint64_t ekey =
          cache::InferenceCache::encoding_key(plan_keys[i], env_fp);
      std::shared_ptr<const nn::Tree> tree = infer_cache_.get_encoding(ekey);
      if (tree == nullptr) {
        tree = std::make_shared<const nn::Tree>(
            encoder_.encode(generation.plans[i], nullptr, enc_env));
        infer_cache_.put_encoding(ekey, tree);
      }
      miss_idx.push_back(i);
      miss_trees.push_back(std::move(tree));
    }
    if (!miss_idx.empty()) {
      std::vector<const nn::Tree*> ptrs;
      ptrs.reserve(miss_trees.size());
      for (const auto& t : miss_trees) ptrs.push_back(t.get());
      const std::vector<double> fresh = model_->predict_batch_ptrs(ptrs);
      for (std::size_t j = 0; j < miss_idx.size(); ++j) {
        preds[miss_idx[j]] = fresh[j];
        infer_cache_.put_score(cache::InferenceCache::score_key(
                                   plan_keys[miss_idx[j]], env_fp, model_epoch_),
                               fresh[j]);
      }
    }
  }
  int best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < preds.size(); ++c) {
    if (preds[c] < best_cost) {
      best_cost = preds[c];
      best = static_cast<int>(c);
    }
  }
  if (predictions != nullptr) *predictions = std::move(preds);
  (best == generation.default_index ? c_default : c_steered)->add();
  return best;
}

LoamDeployment::Choice LoamDeployment::optimize(const Query& query) const {
  static obs::Counter* const c_queries =
      obs::Registry::instance().counter("loam.pipeline.queries_optimized");
  static obs::Histogram* const h_seconds = obs::Registry::instance().histogram(
      "loam.pipeline.optimize_seconds",
      obs::Histogram::exponential_bounds(1e-4, 2.0, 14));
  obs::Span span(obs::Cat::kPipeline, "optimize");
  obs::ScopedTimer timer(h_seconds);
  c_queries->add();
  Choice choice;
  choice.generation = explorer_.explore(query);
  const auto start = std::chrono::steady_clock::now();
  choice.chosen = select(choice.generation, &choice.predicted);
  choice.inference_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return choice;
}

// ---------------------------------------------------------------------------
// Evaluation harness
// ---------------------------------------------------------------------------

std::vector<EvaluatedQuery> prepare_evaluation(
    ProjectRuntime& runtime, const std::vector<Query>& test_queries,
    const PlanExplorer::Config& explorer_config, int runs, std::uint64_t seed,
    int num_threads) {
  warehouse::ClusterConfig cluster_config = runtime.config().cluster;
  cluster_config.machines = runtime.project().archetype.cluster_machines;
  std::vector<EvaluatedQuery> out(test_queries.size());
  // Query i's replay seed is derived by index — the exact values the legacy
  // serial loop drew with its running ++salt — so the verdicts downstream
  // cannot depend on scheduling.
  auto eval_query = [&](const PlanExplorer& explorer, std::size_t i) {
    EvaluatedQuery& eq = out[i];
    eq.query = test_queries[i];
    eq.generation = explorer.explore(eq.query);
    eq.default_index = eq.generation.default_index;
    eq.cost_samples =
        warehouse::paired_replay(eq.generation.plans, cluster_config,
                                 runtime.config().executor, runs, seed + 1 + i);
    eq.mean_cost.reserve(eq.cost_samples.size());
    for (const auto& s : eq.cost_samples) {
      double acc = 0.0;
      for (double c : s) acc += c;
      eq.mean_cost.push_back(s.empty() ? 0.0 : acc / static_cast<double>(s.size()));
    }
  };
  const int threads =
      num_threads > 0
          ? num_threads
          : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (threads <= 1 || test_queries.size() <= 1) {
    PlanExplorer explorer(&runtime.optimizer(), explorer_config);
    for (std::size_t i = 0; i < test_queries.size(); ++i) eval_query(explorer, i);
  } else {
    // Workers share one serial-configured explorer (explore() is const and
    // candidate sets are invariant to the explorer's own thread count, so
    // outer parallelism replaces inner without changing any output); the
    // pool's workers plus the calling thread give `threads` lanes.
    PlanExplorer::Config serial_cfg = explorer_config;
    serial_cfg.num_threads = 1;
    PlanExplorer explorer(&runtime.optimizer(), serial_cfg);
    util::ThreadPool pool(threads - 1);
    pool.parallel_for(test_queries.size(),
                      [&](std::size_t i) { eval_query(explorer, i); });
  }
  return out;
}

}  // namespace loam::core
