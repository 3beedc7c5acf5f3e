// Tests of the serve shard's candidate memo (serve/candidate_memo.h) and of
// the copy-on-write plan storage that makes its hits cheap:
//   * a memoized decision equals a fresh explore() plus scoring bit for bit
//     on the five evaluation archetypes;
//   * the key: a catalog mutation between sightings forces a miss (and the
//     re-explored plans carry the new schema epoch), and queries differing
//     in one selectivity bit or one group-by column never share an entry;
//   * admission: one-off queries store nothing, a throwing query is never
//     stored;
//   * warehouse::Plan copies share nodes until either side mutates, staging
//     or annotating a copy leaves the original bit-identical, and copies of
//     plans a memo entry still holds can be staged concurrently (TSan).
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/loam.h"
#include "core/predictor.h"
#include "core/scorer.h"
#include "serve/candidate_memo.h"
#include "serve/service.h"
#include "util/hash.h"
#include "util/rng.h"
#include "warehouse/cardinality.h"
#include "warehouse/stages.h"
#include "warehouse/workload.h"

namespace loam {
namespace {

namespace fs = std::filesystem;
using core::CandidateGeneration;
using serve::CandidateMemo;
using warehouse::Plan;
using warehouse::PlanNode;
using warehouse::Query;

std::string temp_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("loam_memo_test_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v * 0x9e3779b97f4a7c15ull) ^ 0x51ed270b27cf6c1dull);
}

// Every field of every node, doubles by bits.
std::uint64_t node_digest(const Plan& plan) {
  std::uint64_t h = fold(1, static_cast<std::uint64_t>(plan.root() + 2));
  for (const PlanNode& n : plan.nodes()) {
    for (const int v : {static_cast<int>(n.op), n.left, n.right, n.table_id,
                        n.partitions_accessed, n.columns_accessed,
                        n.schema_epoch, static_cast<int>(n.join_form),
                        n.join_edge, static_cast<int>(n.agg_fn), n.stage}) {
      h = fold(h, static_cast<std::uint64_t>(v));
    }
    for (const double v : {n.est_rows, n.true_rows, n.row_width}) {
      h = fold(h, std::bit_cast<std::uint64_t>(v));
    }
    for (const auto* cols : {&n.join_columns, &n.agg_columns,
                             &n.group_by_columns, &n.filter_columns}) {
      for (const std::string& c : *cols) h = fold(h, hash64(c));
    }
    for (const auto f : n.filter_fns) h = fold(h, static_cast<std::uint64_t>(f));
    for (const int p : n.filter_preds) h = fold(h, static_cast<std::uint64_t>(p));
  }
  return h;
}

void expect_same_generation(const CandidateGeneration& got,
                            const CandidateGeneration& want) {
  ASSERT_EQ(got.plans.size(), want.plans.size());
  EXPECT_EQ(got.signatures, want.signatures);
  EXPECT_EQ(got.knobs, want.knobs);
  ASSERT_EQ(got.rough_costs.size(), want.rough_costs.size());
  for (std::size_t i = 0; i < got.rough_costs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rough_costs[i]),
              std::bit_cast<std::uint64_t>(want.rough_costs[i]));
  }
  EXPECT_EQ(got.default_index, want.default_index);
  EXPECT_EQ(got.trials, want.trials);
  for (std::size_t i = 0; i < got.plans.size(); ++i) {
    EXPECT_EQ(node_digest(got.plans[i]), node_digest(want.plans[i]));
  }
}

warehouse::ProjectArchetype small_archetype(int seed) {
  warehouse::ProjectArchetype a;
  a.name = "memo" + std::to_string(seed);
  a.seed = static_cast<std::uint64_t>(seed);
  a.n_tables = 16;
  a.n_templates = 10;
  a.queries_per_day = 40.0;
  a.stats_coverage = 0.4;
  a.cluster_machines = 12;
  return a;
}

core::PlanExplorer::Config serial_explorer() {
  core::PlanExplorer::Config c;
  c.num_threads = 1;
  return c;
}

// ---------------------------------------------------------------------------
// Served decisions through the memo
// ---------------------------------------------------------------------------

TEST(CandidateMemoService, DecisionsEqualFreshExploreAndScoring) {
  for (const warehouse::ProjectArchetype& arch :
       warehouse::evaluation_archetypes()) {
    SCOPED_TRACE(arch.name);
    core::RuntimeConfig rc;
    rc.seed = 7;
    core::ProjectRuntime runtime(arch, rc);
    runtime.simulate_history(2, 20);
    const std::string dir = temp_dir("decisions");
    serve::ServeConfig cfg;
    cfg.bootstrap_from_history = false;
    cfg.bootstrap_train = false;
    cfg.auto_retrain = false;
    cfg.explorer.num_threads = 1;
    cfg.predictor.hidden_dim = 16;
    cfg.predictor.embed_dim = 16;
    cfg.predictor.tcn_layers = 2;
    cfg.registry_root = dir + "/registry";
    cfg.journal_path = dir + "/feedback.jnl";
    {
      serve::OptimizerService service(&runtime, cfg);
      service.start();
      serve::ModelVersionMeta meta;
      meta.approved = true;
      const int version = service.publish_and_swap(
          std::make_unique<core::AdaptiveCostPredictor>(
              service.encoder().feature_dim(), cfg.predictor),
          meta);
      const core::AdaptiveCostPredictor reference(service.encoder().feature_dim(),
                                                  cfg.predictor);
      const core::CandidateScorer scorer(
          &service.encoder(), std::optional<warehouse::EnvFeatures>(
                                  service.env_context().representative));
      const core::PlanExplorer explorer(&runtime.optimizer(), serial_explorer());

      const std::vector<Query> queries = runtime.make_queries(3, 3, 8);
      ASSERT_FALSE(queries.empty());
      // Three sightings: explore, explore and admit, hit.
      for (int pass = 0; pass < 3; ++pass) {
        for (const Query& q : queries) {
          const serve::ServeDecision d = service.optimize(q);
          ASSERT_EQ(d.model_version, version);
          const CandidateGeneration fresh = explorer.explore(q);
          expect_same_generation(d.generation, fresh);
          std::vector<double> scores;
          const int chosen = scorer.select(reference, fresh, version, &scores);
          EXPECT_EQ(d.chosen, chosen);
          ASSERT_EQ(d.predicted.size(), scores.size());
          for (std::size_t i = 0; i < scores.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(d.predicted[i]),
                      std::bit_cast<std::uint64_t>(scores[i]));
          }
        }
      }
      const cache::CacheStats st = service.shard(0).candidate_memo().stats();
      // Every query is a hit from its third sighting on.
      EXPECT_GE(st.hits, queries.size());
      EXPECT_EQ(st.hits + st.misses, 3 * queries.size());
      service.stop();
    }
    fs::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// The key
// ---------------------------------------------------------------------------

// A runtime, its serial explorer and a memo over them.
struct MemoFixture {
  explicit MemoFixture(int seed = 3)
      : runtime(small_archetype(seed), core::RuntimeConfig()),
        explorer(&runtime.optimizer(), serial_explorer()),
        memo("test.memo", &explorer, &runtime.project().catalog) {}

  // Explores `q` through the memo `times` times; returns the last result.
  CandidateGeneration sight(const Query& q, int times) {
    CandidateGeneration g;
    for (int i = 0; i < times; ++i) g = memo.explore(q);
    return g;
  }

  core::ProjectRuntime runtime;
  core::PlanExplorer explorer;
  CandidateMemo memo;
};

TEST(CandidateMemo, SecondSightingAdmitsAndThirdHits) {
  MemoFixture fx;
  const Query q = fx.runtime.make_queries(0, 0, 1).at(0);
  fx.memo.explore(q);
  EXPECT_EQ(fx.memo.size(), 0u);
  fx.memo.explore(q);
  EXPECT_EQ(fx.memo.size(), 1u);
  const CandidateGeneration hit = fx.memo.explore(q);
  const cache::CacheStats st = fx.memo.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.inserts, 1u);
  expect_same_generation(hit, fx.explorer.explore(q));
  // The hit's plans share the entry's nodes.
  for (const Plan& p : hit.plans) EXPECT_TRUE(p.shares_storage());
  // generation_seconds is the lookup's own time, not the stored explore's.
  EXPECT_GE(hit.generation_seconds, 0.0);
  EXPECT_LT(hit.generation_seconds, 0.05);
}

TEST(CandidateMemo, CatalogMutationBetweenSightingsForcesAMiss) {
  MemoFixture fx;
  const Query q = fx.runtime.make_queries(0, 0, 1).at(0);
  const CandidateGeneration before = fx.sight(q, 3);
  ASSERT_EQ(fx.memo.stats().hits, 1u);
  const int table = q.tables.at(0);
  const int epoch = fx.runtime.project().catalog.table(table).schema_epoch;

  Rng rng(9);
  warehouse::migrate_table(fx.runtime.project(), table, 1, 0, 3.0, rng);
  const CandidateGeneration after = fx.memo.explore(q);
  EXPECT_EQ(fx.memo.stats().hits, 1u);  // a miss
  expect_same_generation(after, fx.explorer.explore(q));
  bool scanned = false;
  for (const Plan& p : after.plans) {
    for (const PlanNode& n : p.nodes()) {
      if (n.op != warehouse::OpType::kTableScan || n.table_id != table) continue;
      scanned = true;
      EXPECT_EQ(n.schema_epoch, epoch + 1);
    }
  }
  EXPECT_TRUE(scanned);
  EXPECT_NE(after.signatures, before.signatures);

  // A statistics change is a mutation too.
  fx.sight(q, 2);
  const std::uint64_t hits = fx.memo.stats().hits;
  warehouse::TableStats stats = fx.runtime.project().catalog.stats(table);
  fx.runtime.project().catalog.set_stats(table, stats);
  fx.memo.explore(q);
  EXPECT_EQ(fx.memo.stats().hits, hits);
}

TEST(CandidateMemo, OneSelectivityBitOrOneGroupByColumnNeverShareAnEntry) {
  MemoFixture fx;
  const std::vector<Query> pool = fx.runtime.make_queries(0, 3, 200);
  const Query* with_pred = nullptr;
  const Query* with_group = nullptr;
  for (const Query& q : pool) {
    if (with_pred == nullptr && !q.predicates.empty()) with_pred = &q;
    if (with_group == nullptr && q.aggregation.has_value() &&
        !q.aggregation->group_by.empty()) {
      with_group = &q;
    }
  }
  ASSERT_NE(with_pred, nullptr);
  ASSERT_NE(with_group, nullptr);

  Query bit = *with_pred;
  double& sel = bit.predicates.front().selectivity;
  sel = std::bit_cast<double>(std::bit_cast<std::uint64_t>(sel) ^ 1u);

  Query group = *with_group;
  auto& [gt, gc] = group.aggregation->group_by.front();
  const int n_cols =
      static_cast<int>(fx.runtime.project().catalog.table(gt).columns.size());
  gc = (gc + 1) % n_cols;

  const std::uint64_t g = fx.runtime.project().catalog.generation();
  for (const auto& [original, variant] :
       {std::pair{with_pred, &bit}, std::pair{with_group, &group}}) {
    EXPECT_NE(CandidateMemo::fingerprint(*original, g),
              CandidateMemo::fingerprint(*variant, g));
    EXPECT_FALSE(CandidateMemo::same_plan_inputs(*original, *variant));
    EXPECT_TRUE(CandidateMemo::same_plan_inputs(*original, *original));
    fx.sight(*original, 3);  // stored and hit
    const std::size_t size = fx.memo.size();
    const std::uint64_t hits = fx.memo.stats().hits;
    const CandidateGeneration v = fx.memo.explore(*variant);
    EXPECT_EQ(fx.memo.stats().hits, hits);  // never served the original's
    expect_same_generation(v, fx.explorer.explore(*variant));
    fx.memo.explore(*variant);
    EXPECT_EQ(fx.memo.size(), size + 1);  // an entry of its own
  }
}

TEST(CandidateMemo, OneOffQueriesLeaveTheMemoEmpty) {
  MemoFixture fx;
  std::vector<Query> queries;
  Query base;
  for (const Query& q : fx.runtime.make_queries(0, 3, 100)) {
    if (!q.predicates.empty()) {
      base = q;
      break;
    }
  }
  ASSERT_FALSE(base.predicates.empty());
  // N distinct queries: one template, N parameter bindings.
  for (int i = 0; i < 64; ++i) {
    Query q = base;
    q.predicates.front().selectivity = 0.001 * (i + 1);
    queries.push_back(q);
  }
  for (const Query& q : queries) fx.memo.explore(q);
  EXPECT_EQ(fx.memo.size(), 0u);
  const cache::CacheStats st = fx.memo.stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, queries.size());
  EXPECT_EQ(st.inserts, 0u);
}

TEST(CandidateMemo, AQueryThatThrowsIsNeverStored) {
  MemoFixture fx;
  Query wide;
  const int tables = fx.runtime.project().catalog.table_count();
  for (int i = 0; i < 32; ++i) wide.tables.push_back(i % tables);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(fx.memo.explore(wide), std::invalid_argument);
  }
  EXPECT_EQ(fx.memo.size(), 0u);
  EXPECT_EQ(fx.memo.stats().inserts, 0u);
  EXPECT_EQ(fx.memo.stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// Copy-on-write plans
// ---------------------------------------------------------------------------

TEST(PlanCopyOnWrite, ACopySharesNodesUntilEitherSideMutates) {
  MemoFixture fx;
  Plan a = fx.runtime.optimizer().optimize(fx.runtime.make_queries(0, 0, 1).at(0));
  ASSERT_GE(a.node_count(), 2);
  EXPECT_FALSE(a.shares_storage());
  const std::uint64_t digest = node_digest(a);

  Plan b = a;
  EXPECT_EQ(&a.nodes(), &b.nodes());
  EXPECT_TRUE(a.shares_storage());
  EXPECT_TRUE(b.shares_storage());
  b.mutable_node(0).est_rows = 7.0;
  EXPECT_NE(&a.nodes(), &b.nodes());
  EXPECT_FALSE(b.shares_storage());  // its clone was never shared
  EXPECT_EQ(node_digest(a), digest);
  EXPECT_EQ(b.node(0).est_rows, 7.0);

  // The original side mutating clones too: the copy keeps the old nodes.
  Plan c = a;
  a.mutable_nodes().front().row_width = 1.0;
  EXPECT_EQ(node_digest(c), digest);
  EXPECT_NE(node_digest(a), digest);

  // add_node through a copy.
  Plan d = c;
  d.add_node(PlanNode{});
  EXPECT_EQ(d.node_count(), c.node_count() + 1);
  EXPECT_EQ(node_digest(c), digest);

  // Assignment shares; empty and moved-from plans behave as empty vectors.
  Plan e;
  EXPECT_EQ(e.node_count(), 0);
  EXPECT_TRUE(e.nodes().empty());
  e = c;
  EXPECT_EQ(&e.nodes(), &c.nodes());
  Plan f = std::move(e);
  EXPECT_EQ(node_digest(f), digest);
  Plan g;
  EXPECT_EQ(Plan(g).node_count(), 0);
  EXPECT_EQ(g.signature(), Plan().signature());
}

TEST(PlanCopyOnWrite, StagingOrAnnotatingACopyLeavesTheOriginalBitIdentical) {
  MemoFixture fx;
  const Query q = fx.runtime.make_queries(0, 0, 1).at(0);
  const Plan original = fx.runtime.optimizer().optimize(q);
  for (const PlanNode& n : original.nodes()) ASSERT_EQ(n.stage, -1);
  const std::uint64_t digest = node_digest(original);
  const std::uint64_t sig = original.signature();

  Plan staged = original;
  const warehouse::StageGraph graph = warehouse::decompose_into_stages(staged);
  EXPECT_GE(graph.stage_count(), 1);
  for (const PlanNode& n : staged.nodes()) EXPECT_GE(n.stage, 0);
  EXPECT_EQ(node_digest(original), digest);
  for (const PlanNode& n : original.nodes()) EXPECT_EQ(n.stage, -1);

  // Annotation (the other mutation site in src/) on a copy whose estimates
  // were wiped: the copy is restored, the original never moved.
  Plan annotated = original;
  for (PlanNode& n : annotated.mutable_nodes()) n.est_rows = n.true_rows = 0.0;
  EXPECT_EQ(node_digest(original), digest);
  warehouse::CardEstimator(fx.runtime.project().catalog, q).annotate(annotated);
  EXPECT_EQ(node_digest(annotated), digest);
  EXPECT_EQ(annotated.signature(), sig);
  EXPECT_EQ(node_digest(original), digest);
}

TEST(PlanCopyOnWrite, ConcurrentStagingOfPlansAMemoEntryStillHolds) {
  MemoFixture fx;
  const std::vector<Query> pool = fx.runtime.make_queries(0, 0, 4);
  ASSERT_FALSE(pool.empty());
  // Admit every query; each entry now holds its plans.
  for (const Query& q : pool) fx.sight(q, 2);
  ASSERT_EQ(fx.memo.size(), pool.size());
  std::vector<std::uint64_t> digests;
  std::vector<CandidateGeneration> held;
  for (const Query& q : pool) {
    held.push_back(fx.memo.explore(q));
    for (const Plan& p : held.back().plans) digests.push_back(node_digest(p));
  }

  // The batcher role copies hits out of the memo and hands them to workers,
  // which copy them again and stage every copy while the memo entries, the
  // held generations and the other workers still share the nodes.
  constexpr int kWorkers = 4;
  constexpr int kRounds = 25;
  std::vector<std::promise<CandidateGeneration>> handoff(kWorkers * kRounds);
  std::vector<std::future<CandidateGeneration>> received;
  for (auto& h : handoff) received.push_back(h.get_future());
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        CandidateGeneration g =
            received[static_cast<std::size_t>(w * kRounds + r)].get();
        for (std::size_t i = 0; i < held.size(); ++i) {
          for (const Plan& shared : held[i].plans) {
            Plan mine = shared;
            warehouse::decompose_into_stages(mine);
            EXPECT_EQ(mine.node(mine.root()).stage, 0);
          }
        }
        for (Plan& p : g.plans) {
          warehouse::decompose_into_stages(p);
          for (const PlanNode& n : p.nodes()) EXPECT_GE(n.stage, 0);
        }
      }
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    for (int w = 0; w < kWorkers; ++w) {
      const Query& q = pool[static_cast<std::size_t>(r + w) % pool.size()];
      handoff[static_cast<std::size_t>(w * kRounds + r)].set_value(
          fx.memo.explore(q));
    }
  }
  for (std::thread& t : workers) t.join();

  std::size_t k = 0;
  for (const Query& q : pool) {
    const CandidateGeneration again = fx.memo.explore(q);
    for (const Plan& p : again.plans) {
      EXPECT_EQ(node_digest(p), digests[k++]);
      for (const PlanNode& n : p.nodes()) EXPECT_EQ(n.stage, -1);
    }
  }
  EXPECT_EQ(fx.memo.stats().hits,
            pool.size() * 2 + static_cast<std::size_t>(kWorkers * kRounds));
}

}  // namespace
}  // namespace loam
