// Unit tests of catalog, query and plan primitives.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "util/rng.h"
#include "warehouse/catalog.h"
#include "warehouse/flags.h"
#include "warehouse/plan.h"
#include "warehouse/query.h"
#include "warehouse/workload.h"

namespace loam::warehouse {
namespace {

Table make_table(const std::string& name, long long rows, int cols = 4) {
  Table t;
  t.name = name;
  t.row_count = rows;
  t.num_partitions = 8;
  for (int c = 0; c < cols; ++c) {
    Column col;
    col.name = "c" + std::to_string(c);
    col.ndv = std::max<long long>(1, rows / (c + 1));
    t.columns.push_back(col);
  }
  return t;
}

TEST(CatalogTest, AddAndFind) {
  Catalog cat;
  const int a = cat.add_table(make_table("orders", 1000));
  const int b = cat.add_table(make_table("lineitem", 5000));
  EXPECT_EQ(cat.table_count(), 2);
  EXPECT_EQ(cat.find("orders"), a);
  EXPECT_EQ(cat.find("lineitem"), b);
  EXPECT_EQ(cat.find("nope"), -1);
  EXPECT_EQ(cat.table(a).row_count, 1000);
}

// Catalog::generation() keys every memo of work planned against a catalog:
// each mutation path must draw a value no catalog state ever had before.
TEST(CatalogGeneration, EveryMutationPathDrawsAFreshValue) {
  Catalog cat;
  std::set<std::uint64_t> seen = {cat.generation()};
  auto fresh = [&](const char* path) {
    EXPECT_TRUE(seen.insert(cat.generation()).second) << path;
  };
  const int a = cat.add_table(make_table("orders", 1000));
  fresh("add_table");
  const int b = cat.add_table(make_table("lineitem", 5000));
  fresh("add_table");
  TableStats stats;
  stats.available = true;
  stats.observed_rows = 900;
  cat.set_stats(a, stats);
  fresh("set_stats");
  cat.mutable_table(b).row_count = 6000;
  fresh("mutable_table");

  // Reads and a rejected add leave it alone.
  const std::uint64_t g = cat.generation();
  EXPECT_EQ(cat.table(a).row_count, 1000);
  EXPECT_TRUE(cat.stats(a).available);
  EXPECT_EQ(cat.find("lineitem"), b);
  EXPECT_EQ(cat.column_identifier(a, 0), "orders.c0");
  EXPECT_THROW(cat.add_table(make_table("orders", 1)), std::invalid_argument);
  EXPECT_EQ(cat.generation(), g);
  EXPECT_THROW(cat.mutable_table(99), std::out_of_range);
  EXPECT_EQ(cat.generation(), g);
}

TEST(CatalogGeneration, CopiesMovesAndAssignmentsNeverReuseAValue) {
  Catalog a;
  a.add_table(make_table("t", 10));
  std::set<std::uint64_t> seen = {a.generation()};
  auto fresh = [&](const Catalog& c, const char* path) {
    EXPECT_TRUE(seen.insert(c.generation()).second) << path;
  };
  const std::uint64_t source = a.generation();
  Catalog b(a);
  fresh(b, "copy construction");
  EXPECT_EQ(a.generation(), source);  // the source's contents did not change
  EXPECT_EQ(b.table(0).name, "t");
  Catalog c;
  fresh(c, "default construction");
  c = a;
  fresh(c, "copy assignment");
  Catalog d(std::move(b));
  fresh(d, "move construction");
  fresh(b, "moved-from source");
  EXPECT_EQ(d.table(0).name, "t");
  d = std::move(c);
  fresh(d, "move assignment");
  fresh(c, "move-assigned source");

  // The project idiom: replacing a project's catalog never brings back the
  // generation of the catalog it replaced, nor copies the new one's.
  ProjectArchetype arch;
  arch.name = "gen";
  arch.n_tables = 6;
  arch.n_templates = 2;
  WorkloadGenerator gen(3);
  Project project = gen.make_project(arch);
  fresh(project.catalog, "make_project");
  const Project other = gen.make_project(arch);
  fresh(other.catalog, "make_project");
  project.catalog = other.catalog;
  fresh(project.catalog, "project.catalog = copy");
  project.catalog = gen.make_project(arch).catalog;
  fresh(project.catalog, "project.catalog = temporary");
}

TEST(CatalogGeneration, MigrateTableDrawsAFreshValueThroughAliasTwins) {
  ProjectArchetype arch;
  arch.name = "mig";
  arch.n_tables = 12;
  arch.n_templates = 4;
  arch.snapshot_fraction = 0.5;
  WorkloadGenerator gen(5);
  Project project = gen.make_project(arch);
  Catalog& cat = project.catalog;
  int base = -1, twin = -1, lone = -1;
  for (int id = 0; id < cat.table_count(); ++id) {
    const int of = cat.table(id).alias_of;
    if (of >= 0 && base < 0) {
      base = of;
      twin = id;
    }
  }
  for (int id = 0; id < cat.table_count() && lone < 0; ++id) {
    bool has_twin = false;
    for (int t = 0; t < cat.table_count(); ++t) {
      has_twin = has_twin || cat.table(t).alias_of == id;
    }
    if (!has_twin && cat.table(id).alias_of < 0) lone = id;
  }
  ASSERT_GE(base, 0) << "archetype produced no snapshot twin";
  ASSERT_GE(lone, 0);

  std::set<std::uint64_t> seen = {cat.generation()};
  Rng rng(11);
  // A table with a twin: the migration writes through the base and every
  // twin, and the catalog ends on a value it never had.
  const int epoch = cat.table(base).schema_epoch;
  migrate_table(project, base, 1, 0, 2.0, rng);
  EXPECT_TRUE(seen.insert(cat.generation()).second);
  EXPECT_EQ(cat.table(base).schema_epoch, epoch + 1);
  EXPECT_EQ(cat.table(twin).schema_epoch, epoch + 1);
  EXPECT_EQ(cat.table(twin).columns.size(), cat.table(base).columns.size());
  // Migrating the twin's base again, and a table without twins, each draw
  // again.
  migrate_table(project, base, 0, 1, 1.0, rng);
  EXPECT_TRUE(seen.insert(cat.generation()).second);
  migrate_table(project, lone, 0, 0, 1.5, rng);
  EXPECT_TRUE(seen.insert(cat.generation()).second);
}

TEST(CatalogTest, DuplicateNameRejected) {
  Catalog cat;
  cat.add_table(make_table("t", 10));
  EXPECT_THROW(cat.add_table(make_table("t", 20)), std::invalid_argument);
}

TEST(CatalogTest, StatsDefaultUnavailable) {
  Catalog cat;
  const int id = cat.add_table(make_table("t", 500));
  EXPECT_FALSE(cat.stats(id).available);
  EXPECT_EQ(cat.stats(id).observed_rows, 500);
  TableStats s;
  s.available = true;
  s.observed_rows = 480;
  cat.set_stats(id, s);
  EXPECT_TRUE(cat.stats(id).available);
}

TEST(CatalogTest, ColumnIdentifierQualified) {
  Catalog cat;
  const int id = cat.add_table(make_table("orders", 10));
  EXPECT_EQ(cat.column_identifier(id, 2), "orders.c2");
}

TEST(CatalogTest, TableLifespan) {
  Table t = make_table("tmp", 10);
  EXPECT_EQ(t.lifespan_days(), std::numeric_limits<int>::max());
  EXPECT_TRUE(t.live_on(1000));
  t.created_day = 3;
  t.dropped_day = 8;
  EXPECT_EQ(t.lifespan_days(), 5);
  EXPECT_FALSE(t.live_on(2));
  EXPECT_TRUE(t.live_on(3));
  EXPECT_TRUE(t.live_on(7));
  EXPECT_FALSE(t.live_on(8));
}

Query make_three_way_query() {
  Query q;
  q.tables = {10, 11, 12};
  JoinEdge e1;
  e1.left_table = 10;
  e1.right_table = 11;
  e1.left_column = 1;
  e1.right_column = 1;
  JoinEdge e2;
  e2.left_table = 11;
  e2.right_table = 12;
  e2.left_column = 2;
  e2.right_column = 1;
  q.joins = {e1, e2};
  return q;
}

TEST(QueryTest, TablePositionAndConnectivity) {
  Query q = make_three_way_query();
  EXPECT_EQ(q.table_position(11), 1);
  EXPECT_EQ(q.table_position(99), -1);
  EXPECT_TRUE(q.joins_connected());
  q.joins.pop_back();
  EXPECT_FALSE(q.joins_connected());
}

TEST(QueryTest, PredicatesOnFiltersByTable) {
  Query q = make_three_way_query();
  Predicate p1;
  p1.table_id = 10;
  p1.column = 2;
  Predicate p2;
  p2.table_id = 11;
  p2.column = 3;
  q.predicates = {p1, p2};
  EXPECT_EQ(q.predicates_on(10).size(), 1u);
  EXPECT_EQ(q.predicates_on(12).size(), 0u);
}

TEST(QueryTest, ParamSeedDistinguishesBindings) {
  Predicate a;
  a.table_id = 1;
  a.column = 2;
  a.selectivity = 0.1;
  Predicate b = a;
  b.selectivity = 0.2;
  EXPECT_NE(a.param_seed(), b.param_seed());
  EXPECT_EQ(a.param_seed(), a.param_seed());
}

TEST(QueryTest, ToSqlRendersJoinsPredicatesAndGrouping) {
  Catalog cat;
  const int orders = cat.add_table(make_table("orders", 1000));
  const int items = cat.add_table(make_table("items", 5000));
  Query q;
  q.tables = {orders, items};
  JoinEdge e;
  e.left_table = orders;
  e.right_table = items;
  e.left_column = 1;
  e.right_column = 2;
  q.joins = {e};
  Predicate p;
  p.table_id = items;
  p.column = 3;
  p.fns = {FilterFn::kGe, FilterFn::kLt};
  q.predicates = {p};
  Aggregation agg;
  agg.fn = AggFn::kSum;
  agg.table_id = items;
  agg.column = 1;
  agg.group_by = {{orders, 2}};
  q.aggregation = agg;

  const std::string sql = q.to_sql(cat);
  EXPECT_NE(sql.find("SELECT orders.c2, SUM(items.c1)"), std::string::npos);
  EXPECT_NE(sql.find("FROM orders, items"), std::string::npos);
  EXPECT_NE(sql.find("orders.c1 = items.c2"), std::string::npos);
  EXPECT_NE(sql.find("items.c3 >= ?1 AND items.c3 < ?2"), std::string::npos);
  EXPECT_NE(sql.find("GROUP BY orders.c2"), std::string::npos);
  EXPECT_EQ(sql.back(), ';');
}

TEST(QueryTest, ToSqlWithoutAggregationSelectsStar) {
  Catalog cat;
  const int t = cat.add_table(make_table("t", 10));
  Query q;
  q.tables = {t};
  const std::string sql = q.to_sql(cat);
  EXPECT_NE(sql.find("SELECT *"), std::string::npos);
  EXPECT_EQ(sql.find("WHERE"), std::string::npos);
  EXPECT_EQ(sql.find("GROUP BY"), std::string::npos);
}

TEST(PlanTest, ThirtyOperatorTypes) {
  EXPECT_EQ(static_cast<int>(OpType::kCount), 30);
  // Every operator renders a proper name.
  for (int i = 0; i < 30; ++i) {
    EXPECT_STRNE(op_name(static_cast<OpType>(i)), "?");
  }
}

TEST(PlanTest, OperatorClassPredicates) {
  EXPECT_TRUE(is_join(OpType::kHashJoin));
  EXPECT_TRUE(is_join(OpType::kBroadcastHashJoin));
  EXPECT_FALSE(is_join(OpType::kHashAggregate));
  EXPECT_TRUE(is_aggregate(OpType::kLocalHashAggregate));
  EXPECT_TRUE(is_exchange(OpType::kBroadcastExchange));
  EXPECT_FALSE(is_exchange(OpType::kSort));
  EXPECT_TRUE(is_filter_like(OpType::kCalc));
}

Plan make_small_plan() {
  // HashJoin(scan(a), scan(b)) under a sink.
  Plan p;
  PlanNode scan_a;
  scan_a.op = OpType::kTableScan;
  scan_a.table_id = 0;
  const int a = p.add_node(scan_a);
  PlanNode scan_b;
  scan_b.op = OpType::kTableScan;
  scan_b.table_id = 1;
  const int b = p.add_node(scan_b);
  PlanNode join;
  join.op = OpType::kHashJoin;
  join.left = a;
  join.right = b;
  const int j = p.add_node(join);
  PlanNode sink;
  sink.op = OpType::kSink;
  sink.left = j;
  p.set_root(p.add_node(sink));
  return p;
}

TEST(PlanTest, PostorderVisitsChildrenFirst) {
  Plan p = make_small_plan();
  const std::vector<int> order = p.postorder();
  ASSERT_EQ(order.size(), 4u);
  // Scans (0,1) before join (2) before sink (3).
  std::vector<int> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[2]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(PlanTest, SignatureDistinguishesStructure) {
  Plan a = make_small_plan();
  Plan b = make_small_plan();
  EXPECT_EQ(a.signature(), b.signature());
  // Swapping scan targets changes the signature.
  b.mutable_node(0).table_id = 1;
  b.mutable_node(1).table_id = 0;
  EXPECT_NE(a.signature(), b.signature());
  // Changing an operator type changes it too.
  Plan c = make_small_plan();
  c.mutable_node(2).op = OpType::kMergeJoin;
  EXPECT_NE(a.signature(), c.signature());
}

TEST(PlanTest, SignatureBucketsEstimatesAndIgnoresTruth) {
  // The semantic signature includes the ESTIMATED cardinalities, but only at
  // log2-bucket granularity: jitter inside a factor-2 band keeps the key,
  // crossing a band changes it.
  Plan a = make_small_plan();
  a.mutable_node(0).est_rows = 1000;
  Plan b = make_small_plan();
  b.mutable_node(0).est_rows = 900;  // same factor-2 band as 1000
  EXPECT_EQ(Plan::est_card_bucket(1000), Plan::est_card_bucket(900));
  EXPECT_EQ(a.signature(), b.signature());
  b.mutable_node(0).est_rows = 12345;  // different bucket
  EXPECT_NE(Plan::est_card_bucket(1000), Plan::est_card_bucket(12345));
  EXPECT_NE(a.signature(), b.signature());

  // Ground truth is executor-only and must NEVER reach a cache key.
  Plan c = make_small_plan();
  c.mutable_node(0).est_rows = 1000;
  c.mutable_node(2).true_rows = 999;
  EXPECT_EQ(a.signature(), c.signature());
}

TEST(PlanTest, SignatureDistinguishesLeafTables) {
  // Plans differing ONLY in one leaf's scan target must hash apart — leaf
  // identity (table, partitions, columns) is part of the semantic key.
  Plan a = make_small_plan();
  Plan b = make_small_plan();
  EXPECT_EQ(a.signature(), b.signature());
  b.mutable_node(1).table_id = 7;
  EXPECT_NE(a.signature(), b.signature());

  Plan c = make_small_plan();
  c.mutable_node(1).partitions_accessed = 3;
  EXPECT_NE(a.signature(), c.signature());

  Plan d = make_small_plan();
  d.mutable_node(1).columns_accessed = 2;
  EXPECT_NE(a.signature(), d.signature());
}

TEST(PlanTest, ParentChildPatterns) {
  Plan p = make_small_plan();
  const auto patterns = p.parent_child_patterns();
  // <HashJoin, TableScan> x2 and <Sink, HashJoin> x1.
  int join_scan = 0, sink_join = 0;
  for (const auto& [pattern, count] : patterns) {
    if (pattern.first == OpType::kHashJoin && pattern.second == OpType::kTableScan) {
      join_scan = count;
    }
    if (pattern.first == OpType::kSink && pattern.second == OpType::kHashJoin) {
      sink_join = count;
    }
  }
  EXPECT_EQ(join_scan, 2);
  EXPECT_EQ(sink_join, 1);
}

TEST(PlanTest, ToStringRendersTree) {
  Plan p = make_small_plan();
  const std::string s = p.to_string();
  EXPECT_NE(s.find("Sink"), std::string::npos);
  EXPECT_NE(s.find("HashJoin"), std::string::npos);
  EXPECT_NE(s.find("TableScan"), std::string::npos);
}

TEST(FlagsTest, DefaultsAndToggle) {
  FlagSet f = FlagSet::defaults();
  EXPECT_TRUE(f.test(Flag::kPreferHashJoin));
  EXPECT_TRUE(f.test(Flag::kEnableBroadcastJoin));
  EXPECT_FALSE(f.test(Flag::kSpoolReuse));
  FlagSet g = f.toggled(Flag::kSpoolReuse);
  EXPECT_TRUE(g.test(Flag::kSpoolReuse));
  EXPECT_FALSE(f.test(Flag::kSpoolReuse));  // original untouched
  EXPECT_NE(f.signature(), g.signature());
}

TEST(FlagsTest, KnobSignatureCoversAllKnobs) {
  PlannerKnobs a, b;
  EXPECT_EQ(a.signature(), b.signature());
  b.card_scale = 2.0;
  EXPECT_NE(a.signature(), b.signature());
  PlannerKnobs c;
  c.force_reorder = true;
  EXPECT_NE(a.signature(), c.signature());
}

TEST(FlagsTest, ToStringListsActiveFlags) {
  PlannerKnobs k;
  k.flags = FlagSet();  // nothing set
  EXPECT_EQ(k.to_string(), "(default)");
  k.flags.set(Flag::kSpoolReuse);
  k.force_reorder = true;
  const std::string s = k.to_string();
  EXPECT_NE(s.find("spool_reuse"), std::string::npos);
  EXPECT_NE(s.find("force_reorder"), std::string::npos);
}

}  // namespace
}  // namespace loam::warehouse
