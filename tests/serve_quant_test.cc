// Tests of the opt-in int8 quantized serving path: the quantized twin's
// registry lifecycle (publish -> own gate verdict -> promote), the guarantee
// that the fp32 path is bit-identical when a quantized version exists but
// was not promoted, deviance rollback landing on the fp32 sibling, and
// deterministic checkpoint reload of the QuantizedCostModel itself.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/quant_model.h"
#include "obs/registry.h"
#include "serve/service.h"
#include "warehouse/flighting.h"

namespace loam::serve {
namespace {

namespace fs = std::filesystem;

struct QuantFixture {
  std::unique_ptr<core::ProjectRuntime> runtime;
  std::string root;

  explicit QuantFixture(const std::string& tag) {
    warehouse::ProjectArchetype a;
    a.name = "quant";
    a.seed = 5;
    a.n_tables = 14;
    a.n_templates = 8;
    a.queries_per_day = 50.0;
    a.stats_coverage = 0.15;
    a.cluster_machines = 24;
    core::RuntimeConfig rc;
    rc.seed = 31;
    runtime = std::make_unique<core::ProjectRuntime>(a, rc);
    runtime->simulate_history(5, 50);
    root = (fs::temp_directory_path() /
            ("loam_quant_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(root);
    fs::create_directories(root);
  }
  ~QuantFixture() { fs::remove_all(root); }

  ServeConfig config() const {
    ServeConfig cfg;
    cfg.predictor.epochs = 4;
    cfg.predictor.hidden_dim = 16;
    cfg.predictor.embed_dim = 16;
    cfg.predictor.tcn_layers = 2;
    cfg.gate.sample_queries = 6;
    cfg.gate.replay_runs = 2;
    cfg.min_train_examples = 20;
    cfg.bootstrap_candidate_queries = 10;
    cfg.batch_linger_us = 100;
    cfg.registry_root = root + "/registry";
    cfg.journal_path = root + "/feedback.jnl";
    return cfg;
  }

  warehouse::ExecutionResult execute(const warehouse::Plan& plan,
                                     std::uint64_t seed) const {
    warehouse::FlightingEnv env(runtime->config().cluster,
                                runtime->config().executor, seed);
    return env.replay_once(plan);
  }

  // Trees for calibration / direct model tests: the repository's executed
  // default plans through the service's own encoder.
  std::vector<nn::Tree> history_trees(const OptimizerService& service,
                                      std::size_t max) const {
    std::vector<nn::Tree> trees;
    for (const warehouse::QueryRecord& r : runtime->repository().records()) {
      trees.push_back(service.encoder().encode(r.plan, nullptr, std::nullopt));
      if (trees.size() >= max) break;
    }
    return trees;
  }
};

// Bootstrap with quantization enabled and a lenient gate: the fp32 model is
// trained, gated, and promoted as v1; its int8 twin is calibrated, gated
// under its OWN seed, published as v2 with quantized=1 metadata, and
// promoted — and a restarted service reloads the quantized checkpoint.
TEST(QuantServe, LifecyclePublishesGatesAndPromotes) {
  QuantFixture fx("lifecycle");
  ServeConfig cfg = fx.config();
  cfg.auto_retrain = false;
  cfg.gate.max_regression = 1e9;
  cfg.gate.max_regression_ratio = 1e9;
  cfg.quant.enabled = true;
  cfg.quant.calibration_examples = 64;

  {
    OptimizerService service(fx.runtime.get(), cfg);
    service.start();

    ASSERT_EQ(service.active_version(), 2);
    const OptimizerService::Stats stats = service.stats();
    EXPECT_EQ(stats.retrain_approved, 1u);
    EXPECT_EQ(stats.quant_published, 1u);
    EXPECT_EQ(stats.quant_approved, 1u);
    EXPECT_EQ(stats.quant_rejected, 0u);

    const std::vector<ModelVersionMeta> versions =
        service.registry().versions();
    ASSERT_EQ(versions.size(), 2u);
    EXPECT_FALSE(versions[0].quantized);
    EXPECT_TRUE(versions[1].quantized);
    EXPECT_TRUE(versions[1].approved);
    EXPECT_FALSE(versions[1].gate_json.empty());
    EXPECT_TRUE(fs::exists(versions[1].checkpoint_path));
    // The twin trains on nothing new: same watermark as its fp32 master.
    EXPECT_EQ(versions[1].watermark_day, versions[0].watermark_day);

    obs::Counter* const c_decisions =
        obs::Registry::instance().counter("loam.serve.quant.decisions");
    const std::uint64_t decisions_before = c_decisions->value();
    obs::set_metrics_enabled(true);
    std::vector<warehouse::Query> queries = fx.runtime->make_queries(8, 8, 3);
    for (const warehouse::Query& q : queries) {
      const ServeDecision d = service.optimize(q);
      EXPECT_EQ(d.model_version, 2);
      ASSERT_EQ(d.predicted.size(), d.generation.plans.size());
    }
    obs::set_metrics_enabled(false);
    EXPECT_GE(c_decisions->value(), decisions_before + queries.size());
    service.stop();
  }

  // Restart: latest approved is the quantized v2; snapshot_for() must
  // branch on the meta flag and reload through QuantizedCostModel::load.
  OptimizerService service(fx.runtime.get(), cfg);
  EXPECT_EQ(service.active_version(), 2);
  service.start();
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(9, 9, 2);
  for (const warehouse::Query& q : queries) {
    EXPECT_EQ(service.optimize(q).model_version, 2);
  }
  service.stop();
}

// A quantized version that exists in the registry but was NOT promoted must
// leave the fp32 serving path bit-identical: same versions served, same
// predicted costs to the last ULP. Cache off so the second pass re-scores
// through the live model rather than the memo.
TEST(QuantServe, UnpromotedQuantLeavesFp32PathBitIdentical) {
  QuantFixture fx("unpromoted");
  ServeConfig cfg = fx.config();
  cfg.auto_retrain = false;
  cfg.gate.max_regression = 1e9;
  cfg.gate.max_regression_ratio = 1e9;
  cfg.cache.encoding_capacity = 0;
  cfg.cache.score_capacity = 0;
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();
  ASSERT_EQ(service.active_version(), 1);

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(8, 8, 6);
  std::vector<std::vector<double>> before;
  for (const warehouse::Query& q : queries) {
    const ServeDecision d = service.optimize(q);
    ASSERT_EQ(d.model_version, 1);
    before.push_back(d.predicted);
  }

  // Hand-publish an (unapproved) int8 twin of the serving model — the
  // registry now contains a quantized version the gate never promoted.
  const auto v1 = service.registry().find(1);
  ASSERT_TRUE(v1.has_value());
  auto fp32 = std::make_unique<core::AdaptiveCostPredictor>(
      service.encoder().feature_dim(), cfg.predictor);
  fp32->load(v1->checkpoint_path);
  const std::vector<nn::Tree> trees = fx.history_trees(service, 32);
  ASSERT_FALSE(trees.empty());
  std::vector<const nn::Tree*> calib;
  for (const nn::Tree& t : trees) calib.push_back(&t);
  core::QuantizedCostModel twin(*fp32, service.encoder().feature_dim(),
                                cfg.predictor, calib);
  ModelVersionMeta meta;
  meta.quantized = true;
  meta.approved = false;
  service.registry().publish(
      [&twin](const std::string& path) { twin.save(path); }, meta);
  ASSERT_TRUE(service.registry().find(2).has_value());
  EXPECT_TRUE(service.registry().find(2)->quantized);

  // Same queries, same fp32 model, same bits.
  EXPECT_EQ(service.active_version(), 1);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ServeDecision d = service.optimize(queries[i]);
    EXPECT_EQ(d.model_version, 1);
    ASSERT_EQ(d.predicted.size(), before[i].size());
    for (std::size_t c = 0; c < d.predicted.size(); ++c) {
      EXPECT_EQ(d.predicted[c], before[i][c]) << "query " << i << " cand " << c;
    }
  }
  service.stop();
}

// When the serving quantized version regresses, the deviance monitor's
// rollback steps down to the previous approved version — its fp32 sibling —
// exactly as it would between two fp32 versions.
TEST(QuantServe, DevianceRollbackLandsOnFp32Sibling) {
  QuantFixture fx("rollback");
  ServeConfig cfg = fx.config();
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  cfg.monitor.window = 8;
  cfg.monitor.min_samples = 3;
  cfg.monitor.max_mean_overrun = 0.5;
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();

  // v1: an UNTRAINED fp32 predictor (its unfitted scaler predicts costs
  // near 1 while real executions land orders of magnitude higher — the
  // deterministic overrun trigger). v2: its int8 twin, promoted.
  auto fp32 = std::make_unique<core::AdaptiveCostPredictor>(
      service.encoder().feature_dim(), cfg.predictor);
  const std::vector<nn::Tree> trees = fx.history_trees(service, 32);
  ASSERT_FALSE(trees.empty());
  std::vector<const nn::Tree*> calib;
  for (const nn::Tree& t : trees) calib.push_back(&t);
  core::QuantizedCostModel twin(*fp32, service.encoder().feature_dim(),
                                cfg.predictor, calib);
  ModelVersionMeta m1;
  m1.approved = true;
  ASSERT_EQ(service.publish_and_swap(std::move(fp32), m1), 1);
  ModelVersionMeta m2;
  m2.approved = true;
  m2.quantized = true;
  service.registry().publish(
      [&twin](const std::string& path) { twin.save(path); }, m2);
  service.swap_to_version(2);
  ASSERT_EQ(service.active_version(), 2);

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 8, 40);
  std::size_t i = 0;
  while (service.active_version() == 2 && i < queries.size()) {
    const ServeDecision d = service.optimize(queries[i]);
    service.record_feedback(d, fx.execute(d.generation.plans[d.chosen], 7 + i));
    ++i;
  }
  ASSERT_EQ(service.active_version(), 1);
  EXPECT_EQ(service.stats().rollbacks, 1u);
  ASSERT_TRUE(service.registry().find(2).has_value());
  EXPECT_TRUE(service.registry().find(2)->rolled_back);
  EXPECT_TRUE(service.registry().find(2)->quantized);
  EXPECT_FALSE(service.registry().find(1)->quantized);
  service.stop();
}

// save() -> load() is deterministic re-quantization: the reloaded model
// scores every tree bit-identically to the instance that was saved.
TEST(QuantServe, CheckpointReloadBitIdentical) {
  QuantFixture fx("ckpt");
  ServeConfig cfg = fx.config();
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  OptimizerService service(fx.runtime.get(), cfg);

  const std::vector<nn::Tree> trees = fx.history_trees(service, 48);
  ASSERT_GE(trees.size(), 8u);
  std::vector<const nn::Tree*> calib;
  for (const nn::Tree& t : trees) calib.push_back(&t);
  core::AdaptiveCostPredictor fp32(service.encoder().feature_dim(),
                                   cfg.predictor);
  core::QuantizedCostModel original(fp32, service.encoder().feature_dim(),
                                    cfg.predictor, calib);
  const std::vector<double> want = original.predict_batch(trees);
  EXPECT_GT(original.model_bytes(), 0u);

  const std::string path = fx.root + "/quant.ckpt";
  original.save(path);
  core::QuantizedCostModel reloaded(service.encoder().feature_dim(),
                                    cfg.predictor);
  reloaded.load(path);
  const std::vector<double> got = reloaded.predict_batch(trees);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "tree " << i;
  }
  // The twin is inference-only by contract.
  EXPECT_THROW(original.fit({}, {}), std::exception);
}

// The quantized flag survives the registry's meta round trip, and metas
// written before the flag existed scan as fp32.
TEST(QuantServe, RegistryMetaQuantizedRoundTrip) {
  QuantFixture fx("meta");
  const std::string root = fx.root + "/registry";
  {
    ModelRegistry registry(root);
    ModelVersionMeta meta;
    meta.quantized = true;
    registry.publish(
        [](const std::string& path) { std::ofstream(path) << "stub"; }, meta);
  }
  ModelRegistry reopened(root);
  ASSERT_TRUE(reopened.find(1).has_value());
  EXPECT_TRUE(reopened.find(1)->quantized);

  // Strip the quantized line (an old-format meta): scans as fp32.
  const std::string meta_path = root + "/v000001.meta";
  ASSERT_TRUE(fs::exists(meta_path));
  std::ifstream in(meta_path);
  std::string line, rest;
  while (std::getline(in, line)) {
    if (line.rfind("quantized\t", 0) == 0) continue;
    rest += line + "\n";
  }
  in.close();
  std::ofstream(meta_path, std::ios::trunc) << rest;
  ModelRegistry legacy(root);
  ASSERT_TRUE(legacy.find(1).has_value());
  EXPECT_FALSE(legacy.find(1)->quantized);
}

}  // namespace
}  // namespace loam::serve
