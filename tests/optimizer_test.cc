// Tests of the native cost-based optimizer: join ordering regimes, physical
// operator selection under the steering flags, exchange placement, and the
// stats-missing degradations of Section 2.1.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>
#include <string>

#include "warehouse/native_optimizer.h"

namespace loam::warehouse {
namespace {

class OptimizerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [&](const std::string& name, long long rows) {
      Table t;
      t.name = name;
      t.row_count = rows;
      t.num_partitions = std::max(1, static_cast<int>(rows / 200000) + 1);
      for (int c = 0; c < 6; ++c) {
        Column col;
        col.name = "c" + std::to_string(c);
        col.ndv = c == 1 ? rows : std::max<long long>(2, rows / 100);
        t.columns.push_back(col);
      }
      return catalog.add_table(t);
    };
    fact = add("fact", 40000000);
    mid = add("mid", 500000);
    dim = add("dim", 2000);

    // Chain: fact -- mid -- dim.
    JoinEdge e1;
    e1.left_table = fact;
    e1.right_table = mid;
    e1.left_column = 2;
    e1.right_column = 1;
    JoinEdge e2;
    e2.left_table = mid;
    e2.right_table = dim;
    e2.left_column = 3;
    e2.right_column = 1;
    query.tables = {fact, mid, dim};
    query.joins = {e1, e2};
    Predicate p;
    p.table_id = fact;
    p.column = 2;
    p.fns = {FilterFn::kEq};
    p.selectivity = 0.05;
    query.predicates = {p};
  }

  void give_fresh_stats() {
    for (int id : {fact, mid, dim}) {
      TableStats s;
      s.available = true;
      s.observed_rows = catalog.table(id).row_count;
      s.ndv_drift = 1.0;
      catalog.set_stats(id, s);
    }
  }

  static std::set<OpType> op_set(const Plan& plan) {
    std::set<OpType> out;
    for (const PlanNode& n : plan.nodes()) out.insert(n.op);
    return out;
  }

  static int count_op(const Plan& plan, OpType op) {
    int n = 0;
    for (const PlanNode& node : plan.nodes()) n += node.op == op;
    return n;
  }

  Catalog catalog;
  Query query;
  int fact = -1, mid = -1, dim = -1;
};

TEST_F(OptimizerFixture, ProducesWellFormedAnnotatedPlan) {
  NativeOptimizer opt(catalog);
  Plan plan = opt.optimize(query);
  ASSERT_GE(plan.root(), 0);
  EXPECT_EQ(plan.node(plan.root()).op, OpType::kSink);
  // Every table scanned exactly once.
  EXPECT_EQ(count_op(plan, OpType::kTableScan), 3);
  // Two joins for three tables.
  int joins = 0;
  for (const PlanNode& n : plan.nodes()) joins += is_join(n.op);
  EXPECT_EQ(joins, 2);
  // All nodes annotated.
  for (int id : plan.postorder()) {
    EXPECT_GE(plan.node(id).true_rows, 1.0);
    EXPECT_GE(plan.node(id).est_rows, 1.0);
  }
}

TEST_F(OptimizerFixture, ReorderingDisabledWithoutStats) {
  NativeOptimizer opt(catalog);
  EXPECT_FALSE(opt.reordering_enabled(query));
  give_fresh_stats();
  EXPECT_TRUE(opt.reordering_enabled(query));
}

TEST_F(OptimizerFixture, DpOrderingBeatsSyntacticOnEstimates) {
  give_fresh_stats();
  NativeOptimizer opt(catalog);
  // Default (stats fresh): DP ordering.
  Plan dp_plan = opt.optimize(query);
  // Forced-syntactic comparison: strip stats so the FROM order (fact first)
  // is used verbatim.
  for (int id : {fact, mid, dim}) {
    TableStats s;
    s.available = false;
    s.observed_rows = catalog.table(id).row_count;
    catalog.set_stats(id, s);
  }
  Plan syn_plan = opt.optimize(query);
  EXPECT_LE(opt.rough_cost(dp_plan), opt.rough_cost(syn_plan) * 1.001);
}

TEST_F(OptimizerFixture, ForceReorderOverridesMissingStats) {
  NativeOptimizer opt(catalog);
  PlannerKnobs forced;
  forced.force_reorder = true;
  Plan forced_plan = opt.optimize(query, forced);
  Plan default_plan = opt.optimize(query);
  // The plans must differ structurally (fact-first syntactic order vs
  // greedy/DP smallest-first).
  EXPECT_NE(forced_plan.signature(), default_plan.signature());
}

TEST_F(OptimizerFixture, BroadcastRequiresStatsOnBuildSide) {
  NativeOptimizer opt(catalog);
  // Without stats, the default (broadcast enabled) must not broadcast.
  Plan no_stats = opt.optimize(query);
  EXPECT_EQ(count_op(no_stats, OpType::kBroadcastHashJoin), 0);
  give_fresh_stats();
  Plan with_stats = opt.optimize(query);
  EXPECT_GT(count_op(with_stats, OpType::kBroadcastHashJoin), 0);
}

TEST_F(OptimizerFixture, BroadcastFlagOffDisablesBroadcast) {
  give_fresh_stats();
  NativeOptimizer opt(catalog);
  PlannerKnobs knobs;
  knobs.flags.set(Flag::kEnableBroadcastJoin, false);
  Plan plan = opt.optimize(query, knobs);
  EXPECT_EQ(count_op(plan, OpType::kBroadcastHashJoin), 0);
  EXPECT_GT(count_op(plan, OpType::kExchange), 0);
}

TEST_F(OptimizerFixture, MergeJoinFlagProducesSortMergePipeline) {
  NativeOptimizer opt(catalog);
  PlannerKnobs knobs;
  knobs.flags.set(Flag::kPreferHashJoin, false);
  knobs.flags.set(Flag::kMergeJoinForSorted, true);
  knobs.flags.set(Flag::kEnableBroadcastJoin, false);
  Plan plan = opt.optimize(query, knobs);
  EXPECT_GT(count_op(plan, OpType::kMergeJoin), 0);
  EXPECT_GT(count_op(plan, OpType::kSort), 0);
  EXPECT_EQ(count_op(plan, OpType::kHashJoin), 0);
}

TEST_F(OptimizerFixture, FilterPushdownPlacesCalcAboveScan) {
  NativeOptimizer opt(catalog);
  Plan pushed = opt.optimize(query);  // defaults push down
  EXPECT_GT(count_op(pushed, OpType::kCalc), 0);
  EXPECT_EQ(count_op(pushed, OpType::kFilter), 0);

  PlannerKnobs late;
  late.flags.set(Flag::kAggressiveFilterPushdown, false);
  Plan unpushed = opt.optimize(query, late);
  EXPECT_EQ(count_op(unpushed, OpType::kCalc), 0);
  EXPECT_GT(count_op(unpushed, OpType::kFilter), 0);
  // Late filtering inflates intermediate cardinalities on the true face.
  double pushed_join_rows = 0.0, unpushed_join_rows = 0.0;
  for (const PlanNode& n : pushed.nodes()) {
    if (is_join(n.op)) pushed_join_rows += n.true_rows;
  }
  for (const PlanNode& n : unpushed.nodes()) {
    if (is_join(n.op)) unpushed_join_rows += n.true_rows;
  }
  EXPECT_GT(unpushed_join_rows, pushed_join_rows);
}

TEST_F(OptimizerFixture, PartialAggregationInsertsLocalAggregate) {
  Aggregation agg;
  agg.fn = AggFn::kSum;
  agg.table_id = fact;
  agg.column = 3;
  agg.group_by = {{dim, 2}};
  query.aggregation = agg;
  NativeOptimizer opt(catalog);
  Plan plain = opt.optimize(query);
  EXPECT_EQ(count_op(plain, OpType::kLocalHashAggregate), 0);
  EXPECT_GT(count_op(plain, OpType::kHashAggregate) +
                count_op(plain, OpType::kSortAggregate),
            0);
  PlannerKnobs knobs;
  knobs.flags.set(Flag::kPartialAggregation);
  Plan partial = opt.optimize(query, knobs);
  EXPECT_EQ(count_op(partial, OpType::kLocalHashAggregate), 1);
}

TEST_F(OptimizerFixture, SpoolReuseSharesRepeatedScans) {
  // Snapshot twin of `dim` joined against it.
  Table twin = catalog.table(dim);
  twin.name = "dim_snapshot";
  twin.alias_of = dim;
  const int twin_id = catalog.add_table(twin);
  JoinEdge e;
  e.left_table = dim;
  e.right_table = twin_id;
  e.left_column = 1;
  e.right_column = 1;
  query.tables.push_back(twin_id);
  query.joins.push_back(e);

  NativeOptimizer opt(catalog);
  Plan plain = opt.optimize(query);
  EXPECT_EQ(count_op(plain, OpType::kSpoolRead), 0);
  PlannerKnobs knobs;
  knobs.flags.set(Flag::kSpoolReuse);
  Plan spooled = opt.optimize(query, knobs);
  EXPECT_EQ(count_op(spooled, OpType::kSpoolRead), 1);
  EXPECT_EQ(count_op(spooled, OpType::kTableScan), 3);
}

TEST_F(OptimizerFixture, CardScaleChangesEstimatesNotTruth) {
  give_fresh_stats();
  NativeOptimizer opt(catalog);
  PlannerKnobs scaled;
  scaled.card_scale = 3.0;
  Plan a = opt.optimize(query);
  Plan b = opt.optimize(query, scaled);
  // Root true cardinality identical regardless of the steering.
  EXPECT_NEAR(a.node(a.root()).true_rows, b.node(b.root()).true_rows,
              a.node(a.root()).true_rows * 1e-9);
}

TEST_F(OptimizerFixture, RoughCostPositiveAndMonotoneInRows) {
  NativeOptimizer opt(catalog);
  Plan plan = opt.optimize(query);
  const double base = opt.rough_cost(plan);
  EXPECT_GT(base, 0.0);
  Plan inflated = plan;
  for (PlanNode& n : inflated.mutable_nodes()) n.est_rows *= 10.0;
  EXPECT_GT(opt.rough_cost(inflated), base);
}

TEST_F(OptimizerFixture, SingleTableQuery) {
  Query q;
  q.tables = {dim};
  NativeOptimizer opt(catalog);
  Plan plan = opt.optimize(q);
  EXPECT_EQ(count_op(plan, OpType::kTableScan), 1);
  EXPECT_EQ(plan.node(plan.root()).op, OpType::kSink);
}

TEST_F(OptimizerFixture, EmptyQueryRejected) {
  NativeOptimizer opt(catalog);
  EXPECT_THROW(opt.optimize(Query{}), std::invalid_argument);
}

TEST_F(OptimizerFixture, OuterJoinNotBroadcast) {
  give_fresh_stats();
  query.joins[1].form = JoinForm::kLeft;
  NativeOptimizer opt(catalog);
  Plan plan = opt.optimize(query);
  // The left-outer edge must not use a broadcast join (our engine restricts
  // broadcast to inner joins); the other edge may.
  for (const PlanNode& n : plan.nodes()) {
    if (n.op == OpType::kBroadcastHashJoin) {
      EXPECT_EQ(n.join_form, JoinForm::kInner);
    }
  }
}

TEST_F(OptimizerFixture, PartitionPruningReflectedInScan) {
  Predicate part;
  part.table_id = fact;
  part.column = 0;
  part.fns = {FilterFn::kEq};
  part.selectivity = 0.1;
  query.predicates.push_back(part);
  NativeOptimizer opt(catalog);
  Plan plan = opt.optimize(query);
  for (const PlanNode& n : plan.nodes()) {
    if (n.op == OpType::kTableScan && n.table_id == fact) {
      EXPECT_LT(n.partitions_accessed, catalog.table(fact).num_partitions);
      EXPECT_GE(n.partitions_accessed, 1);
    }
  }
}

// A chain query over `n` fresh tables, each with collected statistics.
Query chain_query(Catalog& catalog, int n) {
  Query q;
  for (int i = 0; i < n; ++i) {
    Table t;
    t.name = "chain" + std::to_string(catalog.table_count());
    t.row_count = 1000 * (i + 1);
    Column c0;
    c0.name = "c0";
    c0.ndv = 10;
    Column c1;
    c1.name = "c1";
    c1.ndv = t.row_count;
    t.columns = {c0, c1};
    TableStats s;
    s.available = true;
    s.observed_rows = t.row_count;
    q.tables.push_back(catalog.add_table(t));
    catalog.set_stats(q.tables.back(), s);
    if (i > 0) {
      JoinEdge e;
      e.left_table = q.tables[static_cast<std::size_t>(i - 1)];
      e.right_table = q.tables.back();
      e.left_column = 1;
      e.right_column = 1;
      q.joins.push_back(e);
    }
  }
  return q;
}

// Table positions are bits of 32-bit masks: a query with 32 or more tables
// must be rejected loudly, not shifted past the mask width.
TEST(OptimizerLimits, RejectsQueriesWithThirtyTwoOrMoreTables) {
  Catalog catalog;
  const Query widest = chain_query(catalog, 31);
  const Query too_wide = chain_query(catalog, 32);
  NativeOptimizer opt(catalog);

  const Plan plan = opt.optimize(widest);
  int scans = 0;
  for (const PlanNode& n : plan.nodes()) scans += n.op == OpType::kTableScan;
  EXPECT_EQ(scans, 31);

  PlannerKnobs scaled;
  scaled.card_scale = 3.0;
  for (const auto& call : {
           std::function<void()>([&] { opt.optimize(too_wide); }),
           std::function<void()>([&] { opt.optimize_trials(too_wide, {{}, scaled}); }),
       }) {
    try {
      call();
      ADD_FAILURE() << "a 32-table query was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("at most 31"), std::string::npos)
          << e.what();
    }
  }
}

// Larger joins exercise the greedy path (> dp_table_limit).
TEST(OptimizerGreedy, ManyTableQueryUsesGreedyAndStaysConnected) {
  Catalog catalog;
  std::vector<int> ids;
  for (int i = 0; i < 12; ++i) {
    Table t;
    t.name = "t" + std::to_string(i);
    t.row_count = 1000 * (i + 1) * (i + 1);
    Column c0;
    c0.name = "c0";
    c0.ndv = 10;
    Column c1;
    c1.name = "c1";
    c1.ndv = t.row_count;
    t.columns = {c0, c1};
    TableStats s;
    s.available = true;
    s.observed_rows = t.row_count;
    ids.push_back(catalog.add_table(t));
    catalog.set_stats(ids.back(), s);
  }
  Query q;
  q.tables = ids;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    JoinEdge e;
    e.left_table = ids[i - 1];
    e.right_table = ids[i];
    e.left_column = 1;
    e.right_column = 1;
    q.joins.push_back(e);
  }
  NativeOptimizerConfig cfg;
  cfg.dp_table_limit = 8;
  NativeOptimizer opt(catalog, cfg);
  Plan plan = opt.optimize(q);
  int scans = 0;
  for (const PlanNode& n : plan.nodes()) scans += n.op == OpType::kTableScan;
  EXPECT_EQ(scans, 12);
  int joins = 0;
  for (const PlanNode& n : plan.nodes()) joins += is_join(n.op);
  EXPECT_EQ(joins, 11);
}

}  // namespace
}  // namespace loam::warehouse
