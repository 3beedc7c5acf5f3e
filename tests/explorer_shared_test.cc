// Bit-identity contract of planning a query once: the shared estimator, the
// per-class join trees of NativeOptimizer::optimize_trials() and the
// explorer's inert-knob skipping must reproduce the per-trial optimizer
// exactly — every PlanNode field, doubles compared by bits — and must never
// move a candidate set (pinned by a golden digest of explore() output).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "obs/obs.h"
#include "util/hash.h"
#include "warehouse/workload.h"

namespace loam::core {
namespace {

using warehouse::Flag;
using warehouse::NativeOptimizer;
using warehouse::Plan;
using warehouse::PlanNode;
using warehouse::PlannerKnobs;
using warehouse::Query;

struct Fixture {
  warehouse::WorkloadGenerator gen;
  warehouse::Project project;
  std::unique_ptr<NativeOptimizer> optimizer;

  // `stats_coverage` < 0 keeps the archetype's own coverage.
  Fixture(const warehouse::ProjectArchetype& archetype, double stats_coverage)
      : gen(archetype.seed * 7 + 1) {
    warehouse::ProjectArchetype a = archetype;
    if (stats_coverage >= 0.0) a.stats_coverage = stats_coverage;
    project = gen.make_project(a);
    optimizer = std::make_unique<NativeOptimizer>(project.catalog);
  }

  Query query(int i) {
    Rng rng(1000 + static_cast<std::uint64_t>(i));
    return gen.instantiate(project,
                           project.templates[static_cast<std::size_t>(i) %
                                             project.templates.size()],
                           0, rng);
  }
};

// The explorer's widest trial list (risky trials on, both card scales, every
// expert combination), plus a scaled trial that does not force reordering.
std::vector<PlannerKnobs> all_trials() {
  std::vector<PlannerKnobs> out;
  const PlannerKnobs def;
  out.push_back(def);
  for (const Flag f : {Flag::kEnableBroadcastJoin, Flag::kPartialAggregation,
                       Flag::kSpoolReuse, Flag::kAggressiveFilterPushdown}) {
    PlannerKnobs k = def;
    k.flags = k.flags.toggled(f);
    out.push_back(k);
  }
  PlannerKnobs both = def;
  both.flags.set(Flag::kPartialAggregation).set(Flag::kSpoolReuse);
  out.push_back(both);
  PlannerKnobs merge = def;
  merge.flags.set(Flag::kPreferHashJoin, false).set(Flag::kMergeJoinForSorted);
  out.push_back(merge);
  for (const double s : {1.0, 0.05, 0.3, 3.0, 20.0}) {
    PlannerKnobs k = def;
    k.card_scale = s;
    k.force_reorder = true;
    out.push_back(k);
    k.flags.set(Flag::kPartialAggregation);
    out.push_back(k);
  }
  PlannerKnobs unforced = def;
  unforced.card_scale = 3.0;
  out.push_back(unforced);
  return out;
}

void expect_same_plan(const Plan& a, const Plan& b, const std::string& label) {
  ASSERT_EQ(a.root(), b.root()) << label;
  ASSERT_EQ(a.node_count(), b.node_count()) << label;
  for (int id = 0; id < a.node_count(); ++id) {
    const PlanNode& x = a.node(id);
    const PlanNode& y = b.node(id);
    const std::string at = label + " node " + std::to_string(id);
    EXPECT_EQ(x.op, y.op) << at;
    EXPECT_EQ(x.left, y.left) << at;
    EXPECT_EQ(x.right, y.right) << at;
    EXPECT_EQ(x.table_id, y.table_id) << at;
    EXPECT_EQ(x.partitions_accessed, y.partitions_accessed) << at;
    EXPECT_EQ(x.columns_accessed, y.columns_accessed) << at;
    EXPECT_EQ(x.schema_epoch, y.schema_epoch) << at;
    EXPECT_EQ(x.join_form, y.join_form) << at;
    EXPECT_EQ(x.join_columns, y.join_columns) << at;
    EXPECT_EQ(x.join_edge, y.join_edge) << at;
    EXPECT_EQ(x.agg_fn, y.agg_fn) << at;
    EXPECT_EQ(x.agg_columns, y.agg_columns) << at;
    EXPECT_EQ(x.group_by_columns, y.group_by_columns) << at;
    EXPECT_EQ(x.filter_fns, y.filter_fns) << at;
    EXPECT_EQ(x.filter_columns, y.filter_columns) << at;
    EXPECT_EQ(x.filter_preds, y.filter_preds) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.est_rows),
              std::bit_cast<std::uint64_t>(y.est_rows)) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.true_rows),
              std::bit_cast<std::uint64_t>(y.true_rows)) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.row_width),
              std::bit_cast<std::uint64_t>(y.row_width)) << at;
    EXPECT_EQ(x.stage, y.stage) << at;
  }
}

// --- explore() digest: reads only fields the per-trial explorer already
// --- produced, so the golden value can be recomputed on older revisions ---
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v * 0x9e3779b97f4a7c15ull) ^ 0x51ed270b27cf6c1dull);
}

std::uint64_t fold_str(std::uint64_t h, const std::string& s) {
  return fold(h, hash64(s, 11));
}

std::uint64_t digest_generation(std::uint64_t h, const CandidateGeneration& g) {
  h = fold(h, static_cast<std::uint64_t>(g.trials));
  h = fold(h, static_cast<std::uint64_t>(g.default_index));
  h = fold(h, g.plans.size());
  for (std::size_t c = 0; c < g.plans.size(); ++c) {
    const Plan& p = g.plans[c];
    h = fold(h, p.signature());
    h = fold(h, g.knobs[c].signature());
    h = fold(h, std::bit_cast<std::uint64_t>(g.rough_costs[c]));
    h = fold(h, static_cast<std::uint64_t>(p.root() + 1));
    for (const PlanNode& n : p.nodes()) {
      for (const int v : {static_cast<int>(n.op), n.left, n.right, n.table_id,
                          n.partitions_accessed, n.columns_accessed, n.schema_epoch,
                          static_cast<int>(n.join_form), n.join_edge,
                          static_cast<int>(n.agg_fn), n.stage}) {
        h = fold(h, static_cast<std::uint64_t>(v + 2));
      }
      for (const std::string& s : n.join_columns) h = fold_str(h, s);
      for (const std::string& s : n.agg_columns) h = fold_str(h, s);
      for (const std::string& s : n.group_by_columns) h = fold_str(h, s);
      for (const std::string& s : n.filter_columns) h = fold_str(h, s);
      for (const auto f : n.filter_fns) h = fold(h, static_cast<std::uint64_t>(f));
      for (const int pi : n.filter_preds) h = fold(h, static_cast<std::uint64_t>(pi));
      h = fold(h, std::bit_cast<std::uint64_t>(n.est_rows));
      h = fold(h, std::bit_cast<std::uint64_t>(n.true_rows));
      h = fold(h, std::bit_cast<std::uint64_t>(n.row_width));
    }
  }
  return h;
}

// Digest of every explore() output bit over the five evaluation projects,
// 40 queries each, with the default and the risky trial lists.
std::uint64_t explore_digest(int num_threads) {
  std::uint64_t h = 0;
  for (const warehouse::ProjectArchetype& a : warehouse::evaluation_archetypes()) {
    Fixture p(a, -1.0);
    for (const bool risky : {false, true}) {
      ExplorerConfig cfg;
      cfg.num_threads = num_threads;
      cfg.risky_trials = risky;
      PlanExplorer explorer(p.optimizer.get(), cfg);
      for (int i = 0; i < 40; ++i) h = digest_generation(h, explorer.explore(p.query(i)));
    }
  }
  return h;
}
// --- end of explore() digest ---

TEST(ExplorerShared, OptimizeTrialsMatchesPerTrialOptimize) {
  const std::vector<PlannerKnobs> trials = all_trials();
  int compared = 0;
  for (const warehouse::ProjectArchetype& a : warehouse::evaluation_archetypes()) {
    for (const double coverage : {0.0, 0.6, 1.0}) {
      Fixture p(a, coverage);
      for (int i = 0; i < 8; ++i) {
        const Query q = p.query(i);
        const std::vector<Plan> shared = p.optimizer->optimize_trials(q, trials);
        ASSERT_EQ(shared.size(), trials.size());
        for (std::size_t t = 0; t < trials.size(); ++t) {
          expect_same_plan(shared[t], p.optimizer->optimize(q, trials[t]),
                           a.name + " coverage " + std::to_string(coverage) +
                               " query " + std::to_string(i) + " trial " +
                               trials[t].to_string());
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 5 * 3 * 8 * static_cast<int>(trials.size()));
}

TEST(ExplorerShared, ExploreOutputMatchesGoldenDigest) {
  // Computed with the per-trial explorer that preceded trial sharing (one
  // native optimize() per listed trial). A kernel, estimator or explorer
  // change that moves any candidate set, cost or annotation changes this
  // value.
  constexpr std::uint64_t kGolden = 0xe731665236363becull;
  EXPECT_EQ(explore_digest(1), kGolden);
  EXPECT_EQ(explore_digest(4), kGolden);
}

TEST(ExplorerShared, SignaturesTravelWithPlans) {
  Fixture p(warehouse::evaluation_archetypes()[1], -1.0);
  ExplorerConfig cfg;
  cfg.num_threads = 1;
  cfg.risky_trials = true;
  PlanExplorer explorer(p.optimizer.get(), cfg);
  for (int i = 0; i < 20; ++i) {
    const CandidateGeneration g = explorer.explore(p.query(i));
    ASSERT_EQ(g.signatures.size(), g.plans.size());
    for (std::size_t c = 0; c < g.plans.size(); ++c) {
      EXPECT_EQ(g.signatures[c], g.plans[c].signature());
    }
  }
}

TEST(ExplorerShared, AnnotateIgnoresCardScale) {
  int compared = 0;
  for (const warehouse::ProjectArchetype& a : warehouse::evaluation_archetypes()) {
    Fixture p(a, 0.6);
    for (int i = 0; i < 6; ++i) {
      const Query q = p.query(i);
      PlannerKnobs forced;
      forced.force_reorder = true;
      const Plan plan = p.optimizer->optimize(q, forced);
      Plan common = plan;
      warehouse::CardEstimator(p.project.catalog, q, 1.0).annotate(common);
      for (const double s : {0.05, 0.3, 3.0, 20.0}) {
        Plan scaled = plan;
        for (PlanNode& n : scaled.mutable_nodes()) n.est_rows = n.true_rows = -1.0;
        warehouse::CardEstimator(p.project.catalog, q, s).annotate(scaled);
        expect_same_plan(scaled, common,
                         a.name + " query " + std::to_string(i) + " scale " +
                             std::to_string(s));
        ++compared;
      }
      expect_same_plan(common, plan, a.name + " re-annotation");
    }
  }
  EXPECT_EQ(compared, 5 * 6 * 4);
}

// One case per inert-knob rule: wherever the rule holds, the trial the
// explorer skips yields exactly its representative's plan.
TEST(ExplorerShared, InertKnobsLeaveThePlanUnchanged) {
  int partial = 0, spool = 0, reorder = 0, scale = 0;
  for (const warehouse::ProjectArchetype& a : warehouse::evaluation_archetypes()) {
    for (const double coverage : {0.0, 1.0}) {
      Fixture p(a, coverage);
      const NativeOptimizer& opt = *p.optimizer;
      for (int i = 0; i < 24; ++i) {
        const Query q = p.query(i);
        const std::string label = a.name + " query " + std::to_string(i);
        const PlannerKnobs def;
        if (!q.aggregation.has_value() || q.aggregation->group_by.empty()) {
          PlannerKnobs k = def;
          k.flags.set(Flag::kPartialAggregation);
          expect_same_plan(opt.optimize(q, k), opt.optimize(q, def),
                           label + " partial aggregation");
          ++partial;
        }
        std::set<int> storage;
        for (const int t : q.tables) {
          const int alias_of = p.project.catalog.table(t).alias_of;
          storage.insert(alias_of >= 0 ? alias_of : t);
        }
        if (storage.size() == q.tables.size()) {
          PlannerKnobs k = def;
          k.flags.set(Flag::kSpoolReuse);
          expect_same_plan(opt.optimize(q, k), opt.optimize(q, def),
                           label + " spool reuse");
          ++spool;
        }
        if (opt.reordering_enabled(q)) {
          PlannerKnobs k = def;
          k.force_reorder = true;
          expect_same_plan(opt.optimize(q, k), opt.optimize(q, def),
                           label + " force_reorder");
          ++reorder;
        }
        // Two-table views of the query: no subquery reaches 3 inputs.
        if (q.tables.size() >= 2 && !q.joins.empty()) {
          Query pair = q;
          const warehouse::JoinEdge e = q.joins.front();
          pair.tables = {e.left_table, e.right_table};
          pair.joins = {e};
          pair.aggregation.reset();
          std::erase_if(pair.predicates, [&](const warehouse::Predicate& pr) {
            return pr.table_id != e.left_table && pr.table_id != e.right_table;
          });
          if (pair.tables[0] == pair.tables[1]) continue;
          PlannerKnobs unscaled = def;
          unscaled.force_reorder = true;
          for (const double s : {0.05, 3.0}) {
            PlannerKnobs k = unscaled;
            k.card_scale = s;
            expect_same_plan(opt.optimize(pair, k), opt.optimize(pair, unscaled),
                             label + " card_scale");
            ++scale;
          }
        }
      }
    }
  }
  EXPECT_GT(partial, 0);
  EXPECT_GT(spool, 0);
  EXPECT_GT(reorder, 0);
  EXPECT_GT(scale, 0);
}

TEST(ExplorerShared, SkippedTrialsAreCountedButNotBuilt) {
  obs::Counter* const trials =
      obs::Registry::instance().counter("loam.explorer.trials");
  obs::Counter* const built =
      obs::Registry::instance().counter("loam.explorer.trials_built");
  Fixture p(warehouse::evaluation_archetypes()[1], -1.0);
  ExplorerConfig cfg;
  cfg.num_threads = 1;
  PlanExplorer explorer(p.optimizer.get(), cfg);
  obs::set_metrics_enabled(true);
  const std::uint64_t trials0 = trials->value();
  const std::uint64_t built0 = built->value();
  int listed = 0;
  for (int i = 0; i < 20; ++i) listed += explorer.explore(p.query(i)).trials;
  obs::set_metrics_enabled(false);
  EXPECT_EQ(trials->value() - trials0, static_cast<std::uint64_t>(listed));
  EXPECT_GT(built->value() - built0, 0u);
  EXPECT_LT(built->value() - built0, trials->value() - trials0);
}

}  // namespace
}  // namespace loam::core
