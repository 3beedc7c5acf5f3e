// Tests of core::CandidateScorer — the one encode → score → argmin path every
// caller (offline deployment, serve shards, the service's gate closures and
// the modular learner) goes through:
//   * the inference cache is a pure layer: no cache, a zero-capacity cache,
//     a cold cache and a warm cache give bit-identical scores and argmins
//     over every evaluation archetype, with the env block on and off;
//   * one call over k generations equals k single calls;
//   * core::argmin's tie and NaN rule;
//   * a golden digest of the decisions LoamDeployment::select, a 1-shard
//     OptimizerService and ModularLearner::optimize make, computed on the
//     revision before the scoring paths were merged.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "core/loam.h"
#include "core/scorer.h"
#include "drift/modular.h"
#include "serve/service.h"
#include "util/hash.h"
#include "util/rng.h"
#include "warehouse/catalog.h"
#include "warehouse/native_optimizer.h"
#include "warehouse/workload.h"

namespace loam {
namespace {

namespace fs = std::filesystem;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v * 0x9e3779b97f4a7c15ull) ^ 0x51ed270b27cf6c1dull);
}

std::uint64_t fold_double(std::uint64_t h, double v) {
  return fold(h, std::bit_cast<std::uint64_t>(v));
}

std::string temp_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("loam_scorer_test_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

// ---------------------------------------------------------------------------
// core::argmin
// ---------------------------------------------------------------------------

TEST(ScorerArgmin, FirstIndexWinsTiesAndANanAtZeroIsKept) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(core::argmin(std::vector<double>{3.0, 1.0, 1.0}), 1);
  EXPECT_EQ(core::argmin(std::vector<double>{2.0, 2.0, 2.0}), 0);
  // Every comparison against a NaN is false: at index 0 it stays the best,
  // in the middle it is skipped.
  EXPECT_EQ(core::argmin(std::vector<double>{nan, 1.0, 0.0}), 0);
  EXPECT_EQ(core::argmin(std::vector<double>{2.0, nan, 1.0}), 2);
  EXPECT_EQ(core::argmin(std::vector<double>{inf, inf, inf}), 0);
  EXPECT_EQ(core::argmin(std::vector<double>{inf, 4.0}), 1);
  EXPECT_EQ(core::argmin(std::vector<double>{5.0}), 0);
  EXPECT_EQ(core::argmin(std::vector<double>{}), 0);
}

// ---------------------------------------------------------------------------
// Cache as a layer; batching across generations
// ---------------------------------------------------------------------------

// Forwards to a real model and counts the batch calls the scorer makes.
class CountingModel : public core::CostModel {
 public:
  explicit CountingModel(const core::CostModel* inner) : inner_(inner) {}
  void fit(const std::vector<core::TrainingExample>&,
           const std::vector<nn::Tree>&) override {}
  double predict(const nn::Tree& tree) const override {
    return inner_->predict(tree);
  }
  std::vector<double> predict_batch_ptrs(
      const std::vector<const nn::Tree*>& trees) const override {
    ++calls;
    rows += trees.size();
    return inner_->predict_batch_ptrs(trees);
  }
  std::size_t model_bytes() const override { return inner_->model_bytes(); }
  std::string name() const override { return "counting"; }

  mutable int calls = 0;
  mutable std::size_t rows = 0;

 private:
  const core::CostModel* inner_;
};

// One evaluation project: its explored candidate sets, an encoder fitted on
// them and an (untrained, deterministically initialized) predictor.
struct ScoringProject {
  warehouse::WorkloadGenerator gen;
  warehouse::Project project;
  std::unique_ptr<warehouse::NativeOptimizer> optimizer;
  std::unique_ptr<core::PlanEncoder> encoder;
  std::unique_ptr<core::AdaptiveCostPredictor> model;
  std::vector<core::CandidateGeneration> generations;

  explicit ScoringProject(const warehouse::ProjectArchetype& archetype)
      : gen(archetype.seed * 7 + 1), project(gen.make_project(archetype)) {
    optimizer = std::make_unique<warehouse::NativeOptimizer>(project.catalog);
    core::ExplorerConfig ec;
    ec.num_threads = 1;
    core::PlanExplorer explorer(optimizer.get(), ec);
    for (int i = 0; i < 6; ++i) {
      Rng rng(1000 + static_cast<std::uint64_t>(i));
      generations.push_back(explorer.explore(gen.instantiate(
          project, project.templates[static_cast<std::size_t>(i) %
                                     project.templates.size()],
          0, rng)));
    }
    encoder = std::make_unique<core::PlanEncoder>(&project.catalog);
    std::vector<const warehouse::Plan*> plans;
    for (const core::CandidateGeneration& g : generations) {
      for (const warehouse::Plan& p : g.plans) plans.push_back(&p);
    }
    encoder->fit_normalizers(plans);
    core::PredictorConfig pc;
    pc.hidden_dim = 16;
    pc.embed_dim = 16;
    pc.tcn_layers = 2;
    model = std::make_unique<core::AdaptiveCostPredictor>(encoder->feature_dim(), pc);
  }
};

std::optional<warehouse::EnvFeatures> test_env(bool on) {
  if (!on) return std::nullopt;
  warehouse::EnvFeatures env;
  env.cpu_idle = 0.31;
  env.io_wait = 0.07;
  env.load5_norm = 0.62;
  env.mem_usage = 0.48;
  return env;
}

void expect_bit_equal(const std::vector<double>& a, const std::vector<double>& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << label << " candidate " << i;
  }
}

TEST(CandidateScorer, CacheStateNeverChangesScoresOrArgmins) {
  cache::CacheConfig zero_cfg;
  zero_cfg.encoding_capacity = 0;
  zero_cfg.score_capacity = 0;
  for (const warehouse::ProjectArchetype& a : warehouse::evaluation_archetypes()) {
    ScoringProject p(a);
    for (const bool env_on : {true, false}) {
      const std::optional<warehouse::EnvFeatures> env = test_env(env_on);
      cache::InferenceCache zero("scorer_test.zero", zero_cfg);
      // Both tables on: the encoding table is off by default.
      cache::CacheConfig memo_cfg;
      memo_cfg.encoding_capacity = 4096;
      cache::InferenceCache memo("scorer_test.memo", memo_cfg);
      const core::CandidateScorer none_scorer(p.encoder.get(), env);
      const core::CandidateScorer zero_scorer(p.encoder.get(), env, &zero);
      const core::CandidateScorer memo_scorer(p.encoder.get(), env, &memo);
      for (std::size_t g = 0; g < p.generations.size(); ++g) {
        const core::CandidateGeneration& gen = p.generations[g];
        const std::string label = a.name + (env_on ? " env" : " no-env") +
                                  " generation " + std::to_string(g);
        std::vector<double> none, zeroed, cold, warm, reencoded;
        const int best = none_scorer.select(*p.model, gen, 1, &none);
        EXPECT_EQ(best, core::argmin(none)) << label;
        EXPECT_EQ(zero_scorer.select(*p.model, gen, 1, &zeroed), best) << label;
        EXPECT_EQ(memo_scorer.select(*p.model, gen, 1, &cold), best) << label;
        EXPECT_EQ(memo_scorer.select(*p.model, gen, 1, &warm), best) << label;
        // A new epoch misses every score and is scored from cached encodings.
        EXPECT_EQ(memo_scorer.select(*p.model, gen, 2, &reencoded), best) << label;
        expect_bit_equal(none, zeroed, label + " zero-capacity");
        expect_bit_equal(none, cold, label + " cold");
        expect_bit_equal(none, warm, label + " warm");
        expect_bit_equal(none, reencoded, label + " encoding hits");
      }
      EXPECT_EQ(zero.score_stats().hits, 0u);
      EXPECT_EQ(zero.encoding_stats().hits, 0u);
      EXPECT_GT(memo.score_stats().hits, 0u);
      EXPECT_GT(memo.encoding_stats().hits, 0u);
    }
  }
}

TEST(CandidateScorer, OneCallOverManyGenerationsEqualsSingleCalls) {
  ScoringProject p(warehouse::evaluation_archetypes()[2]);
  const std::size_t k = p.generations.size();
  std::vector<const core::CandidateGeneration*> gens;
  std::size_t candidates = 0;
  for (const core::CandidateGeneration& g : p.generations) {
    gens.push_back(&g);
    candidates += g.plans.size();
  }
  ASSERT_GT(candidates, k);  // multi-candidate sets, not just defaults
  for (const bool cached : {false, true}) {
    cache::InferenceCache memo("scorer_test.batch", cache::CacheConfig{});
    const core::CandidateScorer scorer(p.encoder.get(), test_env(true),
                                       cached ? &memo : nullptr);
    const CountingModel counting(p.model.get());
    std::vector<std::vector<double>> together(k);
    std::vector<std::vector<double>*> outs;
    for (std::vector<double>& v : together) outs.push_back(&v);
    scorer.score(counting, 3, gens, outs);
    // One forward pass over every candidate of every generation.
    EXPECT_EQ(counting.calls, 1);
    EXPECT_EQ(counting.rows, candidates);

    const core::CandidateScorer single(p.encoder.get(), test_env(true));
    for (std::size_t g = 0; g < k; ++g) {
      std::vector<double> alone;
      single.select(*p.model, p.generations[g], 3, &alone);
      expect_bit_equal(together[g], alone, "generation " + std::to_string(g));
    }
    if (cached) {
      // Warm: every score hits, so no forward pass runs at all.
      scorer.score(counting, 3, gens, outs);
      EXPECT_EQ(counting.calls, 1);
    }
  }
}

// --- golden decision digest: public APIs only, so the golden value can be
// --- recomputed on older revisions ---

// LoamDeployment::select under every environment strategy, cold then warm.
std::uint64_t deployment_digest() {
  warehouse::ProjectArchetype a;
  a.name = "scorerfx";
  a.seed = 11;
  a.n_tables = 12;
  a.n_templates = 7;
  a.queries_per_day = 40.0;
  a.stats_coverage = 0.2;
  a.cluster_machines = 16;
  core::RuntimeConfig rc;
  rc.seed = 77;
  core::ProjectRuntime runtime(a, rc);
  runtime.simulate_history(4, 40);

  core::LoamConfig cfg;
  cfg.train_first_day = 0;
  cfg.train_last_day = 3;
  cfg.max_train_queries = 120;
  cfg.candidate_sample_queries = 10;
  cfg.predictor.epochs = 4;
  cfg.predictor.hidden_dim = 16;
  cfg.predictor.num_threads = 1;
  core::LoamDeployment deployment(&runtime, cfg);
  deployment.train();

  core::PlanExplorer::Config ec;
  ec.num_threads = 1;
  core::PlanExplorer explorer(&runtime.optimizer(), ec);
  const std::vector<warehouse::Query> queries = runtime.make_queries(4, 5, 10);
  std::uint64_t h = 1;
  for (int pass = 0; pass < 2; ++pass) {
    for (const warehouse::Query& q : queries) {
      const core::CandidateGeneration gen = explorer.explore(q);
      for (const core::EnvInferenceStrategy s :
           {core::EnvInferenceStrategy::kRepresentativeMean,
            core::EnvInferenceStrategy::kClusterExpected,
            core::EnvInferenceStrategy::kClusterInstant,
            core::EnvInferenceStrategy::kNoEnv}) {
        std::vector<double> predicted;
        h = fold(h, static_cast<std::uint64_t>(
                        deployment.select_with_strategy(gen, s, &predicted)));
        for (const double p : predicted) h = fold_double(h, p);
      }
    }
  }
  return h;
}

// Model-path decisions of a 1-shard service whose bootstrap retrain passes a
// lenient gate, plus that gate's verdict. Requests go in groups of four so
// batches carry several requests; each decision is folded in request order.
std::uint64_t service_digest() {
  warehouse::ProjectArchetype a;
  a.name = "serve";
  a.seed = 5;
  a.n_tables = 14;
  a.n_templates = 8;
  a.queries_per_day = 50.0;
  a.stats_coverage = 0.15;
  a.cluster_machines = 24;
  core::RuntimeConfig rc;
  rc.seed = 31;
  core::ProjectRuntime runtime(a, rc);
  runtime.simulate_history(5, 50);
  const std::string root = temp_dir("service");

  serve::ServeConfig cfg;
  cfg.num_shards = 1;
  cfg.predictor.epochs = 4;
  cfg.predictor.hidden_dim = 16;
  cfg.predictor.embed_dim = 16;
  cfg.predictor.tcn_layers = 2;
  cfg.predictor.num_threads = 1;
  cfg.explorer.num_threads = 1;
  cfg.gate.sample_queries = 6;
  cfg.gate.replay_runs = 2;
  cfg.gate.replay_threads = 1;
  cfg.gate.max_regression = 1e9;
  cfg.gate.max_regression_ratio = 1e9;
  cfg.min_train_examples = 20;
  cfg.bootstrap_candidate_queries = 10;
  cfg.auto_retrain = false;
  cfg.batch_linger_us = 100;
  cfg.registry_root = root + "/registry";
  cfg.journal_path = root + "/feedback.jnl";

  std::uint64_t h = 2;
  {
    serve::OptimizerService service(&runtime, cfg);
    service.start();
    const auto meta = service.registry().latest_approved();
    h = fold(h, meta.has_value() ? static_cast<std::uint64_t>(meta->version) : 0);
    if (meta.has_value()) h = fold_double(h, meta->gate_gain);
    const std::vector<warehouse::Query> queries = runtime.make_queries(8, 9, 16);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < queries.size(); i += 4) {
        std::vector<std::future<serve::ServeDecision>> futures;
        for (std::size_t j = i; j < std::min(i + 4, queries.size()); ++j) {
          futures.emplace_back();
          EXPECT_TRUE(service.try_submit(queries[j], &futures.back()));
        }
        for (std::future<serve::ServeDecision>& f : futures) {
          const serve::ServeDecision d = f.get();
          h = fold(h, static_cast<std::uint64_t>(d.model_version + 2));
          h = fold(h, static_cast<std::uint64_t>(d.chosen));
          h = fold_double(h, d.predicted_cost);
          for (const double p : d.predicted) h = fold_double(h, p);
        }
      }
    }
    service.stop();
  }
  fs::remove_all(root);
  return h;
}

// ModularLearner::optimize over a short scripted drift: two days of
// traffic, a retrain, a schema migration, a day of drifted traffic, a
// warm-start retrain and one more day. `modular = false` runs the
// monolithic baseline (one pooled model) over the same script.
std::uint64_t modular_digest(bool modular, int* model_decisions) {
  warehouse::ProjectArchetype a;
  a.name = "A";
  a.seed = 5;
  a.n_tables = 10;
  a.avg_columns_per_table = 8;
  a.n_templates = 6;
  a.queries_per_day = 50.0;
  a.stats_coverage = 0.3;
  a.cluster_machines = 12;
  core::RuntimeConfig rc;
  rc.seed = 21;
  core::ProjectRuntime runtime(a, rc);
  const std::string dir = temp_dir("modular");

  drift::LearnerConfig cfg;
  cfg.modular = modular;
  cfg.state_dir = dir;
  cfg.predictor.epochs = 3;
  cfg.predictor.hidden_dim = 12;
  cfg.predictor.embed_dim = 8;
  cfg.predictor.tcn_layers = 2;
  cfg.predictor.batch_size = 8;
  cfg.predictor.adversarial = false;
  cfg.predictor.num_threads = 1;
  cfg.explorer.top_k = 3;
  cfg.explorer.card_scales = {0.5};
  cfg.explorer.num_threads = 1;
  cfg.gate.sample_queries = 4;
  cfg.gate.replay_runs = 2;
  cfg.gate.replay_threads = 1;
  cfg.gate.max_regression = 10.0;
  cfg.gate.max_regression_ratio = 100.0;
  cfg.incremental_epochs = 2;
  cfg.min_train_examples = 8;

  std::uint64_t h = modular ? 3 : 4;
  *model_decisions = 0;
  {
    drift::ModularLearner learner(cfg);
    learner.onboard("A", &runtime);
    auto serve_day = [&](int day) {
      for (const warehouse::Query& q : runtime.make_queries(day, day, 6)) {
        const drift::ModularLearner::Decision d = learner.optimize("A", q);
        h = fold(h, static_cast<std::uint64_t>(d.chosen));
        h = fold(h, static_cast<std::uint64_t>(d.model_version));
        h = fold(h, d.used_model ? 1 : 0);
        if (d.used_model) ++*model_decisions;
        learner.record_feedback(
            "A", d, d.generation.rough_costs.at(static_cast<std::size_t>(d.chosen)),
            day);
      }
    };
    auto retrain = [&](int day) {
      const drift::ModularLearner::RetrainReport r =
          learner.retrain_module(modular ? "A" : "*", day);
      h = fold(h, r.approved ? 1 : 0);
      h = fold(h, static_cast<std::uint64_t>(r.version));
      h = fold_double(h, r.gate_gain);
    };
    serve_day(0);
    serve_day(1);
    retrain(1);
    serve_day(2);
    Rng rng(5);
    warehouse::migrate_table(runtime.project(), 0, 2, 1, 4.0, rng);
    serve_day(3);
    retrain(3);
    serve_day(4);
  }
  fs::remove_all(dir);
  return h;
}
// --- end of golden decision digest ---

TEST(ScorerGolden, DecisionsMatchGoldenDigest) {
  // Computed on the revision before the scoring paths were merged into
  // core::CandidateScorer.
  constexpr std::uint64_t kDeployment = 0x32ede7a9eb46ce58ull;
  constexpr std::uint64_t kService = 0x169d244c6810ee5aull;
  constexpr std::uint64_t kModular = 0x2a912e82c20017b6ull;
  constexpr std::uint64_t kMonolithic = 0x94049d68b35f7101ull;
  EXPECT_EQ(deployment_digest(), kDeployment);
  EXPECT_EQ(service_digest(), kService);
  // The drift legs must actually score with a model, or their digests only
  // pin native defaults.
  int model_decisions = 0;
  EXPECT_EQ(modular_digest(true, &model_decisions), kModular);
  EXPECT_GT(model_decisions, 0);
  EXPECT_EQ(modular_digest(false, &model_decisions), kMonolithic);
  EXPECT_GT(model_decisions, 0);
}

}  // namespace
}  // namespace loam
