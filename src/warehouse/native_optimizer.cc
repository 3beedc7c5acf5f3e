#include "warehouse/native_optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace loam::warehouse {

namespace {

// Relative per-row cost weights of the engine's rough cost model.
double op_unit_cost(OpType op) {
  switch (op) {
    case OpType::kTableScan: return 1.0;
    case OpType::kSpoolRead: return 0.3;
    case OpType::kSpoolWrite: return 0.8;
    case OpType::kFilter: return 0.2;
    case OpType::kCalc: return 0.3;
    case OpType::kProject: return 0.1;
    case OpType::kHashJoin: return 2.0;
    case OpType::kMergeJoin: return 1.4;
    case OpType::kBroadcastHashJoin: return 1.6;
    case OpType::kNestedLoopJoin: return 12.0;
    case OpType::kHashAggregate: return 1.6;
    case OpType::kSortAggregate: return 1.2;
    case OpType::kLocalHashAggregate: return 0.9;
    case OpType::kSort: return 2.2;
    case OpType::kExchange: return 1.3;
    case OpType::kBroadcastExchange: return 2.2;
    case OpType::kLocalExchange: return 0.4;
    case OpType::kLimit: return 0.05;
    case OpType::kTopN: return 0.4;
    case OpType::kSink: return 0.05;
    default: return 0.5;
  }
}

int popcount(std::uint32_t x) { return std::popcount(x); }

}  // namespace

NativeOptimizer::NativeOptimizer(const Catalog& catalog, NativeOptimizerConfig config)
    : catalog_(catalog), config_(config) {}

bool NativeOptimizer::reordering_enabled(const Query& query) const {
  // Join reordering relies on per-table statistics; with any of them missing
  // the transformation rule is disabled (Section 2.1).
  for (int t : query.tables) {
    if (!catalog_.stats(t).available) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Join ordering
// ---------------------------------------------------------------------------

namespace {

// In-memory join tree produced by the ordering phase.
struct JoinTreeNode {
  int table_pos = -1;  // leaf: position in query.tables
  int left = -1;
  int right = -1;
  int edge = -1;              // index into query.joins (internal nodes)
  std::uint32_t mask = 0;     // participating table positions
};
struct JoinTree {
  std::vector<JoinTreeNode> nodes;
  int root = -1;
};

struct JoinGraph {
  int n = 0;
  std::vector<std::uint32_t> adj;           // adjacency mask per position
  std::vector<std::pair<int, int>> edges;   // edge -> (pos_a, pos_b)

  explicit JoinGraph(const Query& query) {
    n = static_cast<int>(query.tables.size());
    adj.assign(static_cast<std::size_t>(n), 0);
    for (const JoinEdge& j : query.joins) {
      const int a = query.table_position(j.left_table);
      const int b = query.table_position(j.right_table);
      edges.emplace_back(a, b);
      if (a >= 0 && b >= 0) {
        adj[static_cast<std::size_t>(a)] |= (1u << b);
        adj[static_cast<std::size_t>(b)] |= (1u << a);
      }
    }
  }

  bool connected(std::uint32_t mask) const {
    if (mask == 0) return false;
    const std::uint32_t start = mask & (~mask + 1);
    std::uint32_t seen = start;
    std::uint32_t frontier = start;
    while (frontier != 0) {
      std::uint32_t next = 0;
      for (int i = 0; i < n; ++i) {
        if (frontier & (1u << i)) next |= adj[static_cast<std::size_t>(i)] & mask;
      }
      next &= ~seen;
      seen |= next;
      frontier = next;
    }
    return seen == mask;
  }

  // First edge with one endpoint in `a` and the other in `b`; -1 if none.
  int crossing_edge(std::uint32_t a, std::uint32_t b) const {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [x, y] = edges[e];
      if (x < 0 || y < 0) continue;
      const std::uint32_t bx = 1u << x, by = 1u << y;
      if (((a & bx) && (b & by)) || ((a & by) && (b & bx))) {
        return static_cast<int>(e);
      }
    }
    return -1;
  }
};

// The cost-independent half of DP join ordering, shared by every card_scale:
// each connected subset with >= 2 tables that has a split into two
// plannable halves, in the order the DP visits them (by population count,
// then value), with those splits in the order the DP compares them (each
// unordered split once), which is what breaks cost ties.
struct DpSplits {
  struct Split {
    std::uint32_t sub = 0;
    int edge = -1;
  };
  std::vector<std::uint32_t> masks;
  std::vector<std::size_t> first;  // masks[k]'s splits: [first[k], first[k + 1])
  std::vector<Split> splits;
};

DpSplits dp_splits(const JoinGraph& graph) {
  const int n = graph.n;
  const std::uint32_t full = (1u << n) - 1;
  std::vector<std::uint32_t> masks;
  for (std::uint32_t m = 1; m <= full; ++m) {
    if (popcount(m) >= 2) masks.push_back(m);
  }
  std::sort(masks.begin(), masks.end(), [](std::uint32_t a, std::uint32_t b) {
    const int pa = popcount(a), pb = popcount(b);
    return pa != pb ? pa < pb : a < b;
  });

  DpSplits dp;
  std::vector<bool> plannable(static_cast<std::size_t>(full) + 1, false);
  for (int i = 0; i < n; ++i) plannable[1u << i] = true;
  for (std::uint32_t mask : masks) {
    if (!graph.connected(mask)) continue;
    const std::size_t begin = dp.splits.size();
    for (std::uint32_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const std::uint32_t rest = mask ^ sub;
      if (sub < rest) continue;  // each unordered split once
      if (!plannable[sub] || !plannable[rest]) continue;
      const int edge = graph.crossing_edge(sub, rest);
      if (edge >= 0) dp.splits.push_back({sub, edge});
    }
    if (dp.splits.size() == begin) continue;
    plannable[mask] = true;
    dp.masks.push_back(mask);
    dp.first.push_back(begin);
  }
  dp.first.push_back(dp.splits.size());
  return dp;
}

JoinTree order_dp(const JoinGraph& graph, const DpSplits& dp, const CardEstimator& cards,
                  double card_scale) {
  const int n = graph.n;
  const std::uint32_t full = (1u << n) - 1;

  JoinTree tree;
  std::vector<double> rows(static_cast<std::size_t>(full) + 1, -1.0);
  auto subset_rows = [&](std::uint32_t mask) {
    double& r = rows[mask];
    if (r < 0.0) r = cards.subset_rows(mask, /*truth=*/false, card_scale);
    return r;
  };

  std::vector<double> best_cost(static_cast<std::size_t>(full) + 1,
                                std::numeric_limits<double>::infinity());
  std::vector<int> best_node(static_cast<std::size_t>(full) + 1, -1);

  for (int i = 0; i < n; ++i) {
    const std::uint32_t m = 1u << i;
    tree.nodes.push_back({i, -1, -1, -1, m});
    best_node[m] = static_cast<int>(tree.nodes.size()) - 1;
    best_cost[m] = subset_rows(m);  // scan cost
  }

  for (std::size_t k = 0; k < dp.masks.size(); ++k) {
    const std::uint32_t mask = dp.masks[k];
    int chosen_sub = -1, chosen_edge = -1;
    double chosen_cost = std::numeric_limits<double>::infinity();
    for (std::size_t s = dp.first[k]; s < dp.first[k + 1]; ++s) {
      const auto [sub, edge] = dp.splits[s];
      const std::uint32_t rest = mask ^ sub;
      // The list holds every structurally plannable split; a half whose
      // splits all cost infinity at this scale was left unplanned above.
      if (best_node[sub] < 0 || best_node[rest] < 0) continue;
      const double join_cost =
          subset_rows(sub) + subset_rows(rest) + subset_rows(mask);
      const double cost = best_cost[sub] + best_cost[rest] + join_cost;
      if (cost < chosen_cost) {
        chosen_cost = cost;
        chosen_sub = static_cast<int>(sub);
        chosen_edge = edge;
      }
    }
    if (chosen_sub < 0) continue;
    const std::uint32_t sub = static_cast<std::uint32_t>(chosen_sub);
    tree.nodes.push_back({-1, best_node[sub], best_node[mask ^ sub], chosen_edge, mask});
    best_node[mask] = static_cast<int>(tree.nodes.size()) - 1;
    best_cost[mask] = chosen_cost;
  }

  if (best_node[full] < 0) {
    throw std::runtime_error("DP join ordering failed: join graph not connected");
  }
  tree.root = best_node[full];
  return tree;
}

JoinTree order_greedy(const JoinGraph& graph, const CardEstimator& cards,
                      double card_scale) {
  const int n = graph.n;
  JoinTree tree;

  // Start from the smallest filtered table.
  int start = 0;
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    const double r = cards.subset_rows(1u << i, false, card_scale);
    if (r < best) {
      best = r;
      start = i;
    }
  }
  tree.nodes.push_back({start, -1, -1, -1, 1u << start});
  int current = 0;
  std::uint32_t mask = 1u << start;

  while (popcount(mask) < n) {
    int pick = -1;
    double pick_rows = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const std::uint32_t bit = 1u << i;
      if (mask & bit) continue;
      if (graph.crossing_edge(mask, bit) < 0) continue;
      const double r = cards.subset_rows(mask | bit, false, card_scale);
      if (r < pick_rows) {
        pick_rows = r;
        pick = i;
      }
    }
    if (pick < 0) throw std::runtime_error("greedy ordering: join graph disconnected");
    const std::uint32_t bit = 1u << pick;
    tree.nodes.push_back({pick, -1, -1, -1, bit});
    const int leaf = static_cast<int>(tree.nodes.size()) - 1;
    const int edge = graph.crossing_edge(mask, bit);
    tree.nodes.push_back({-1, current, leaf, edge, mask | bit});
    current = static_cast<int>(tree.nodes.size()) - 1;
    mask |= bit;
  }
  tree.root = current;
  return tree;
}

JoinTree order_syntactic(const JoinGraph& graph) {
  const int n = graph.n;
  JoinTree tree;
  tree.nodes.push_back({0, -1, -1, -1, 1u});
  int current = 0;
  std::uint32_t mask = 1u;
  while (popcount(mask) < n) {
    // First FROM-order table that connects to the prefix.
    int pick = -1;
    for (int i = 0; i < n; ++i) {
      const std::uint32_t bit = 1u << i;
      if (mask & bit) continue;
      if (graph.crossing_edge(mask, bit) >= 0) {
        pick = i;
        break;
      }
    }
    if (pick < 0) throw std::runtime_error("syntactic ordering: disconnected joins");
    const std::uint32_t bit = 1u << pick;
    tree.nodes.push_back({pick, -1, -1, -1, bit});
    const int leaf = static_cast<int>(tree.nodes.size()) - 1;
    const int edge = graph.crossing_edge(mask, bit);
    tree.nodes.push_back({-1, current, leaf, edge, mask | bit});
    current = static_cast<int>(tree.nodes.size()) - 1;
    mask |= bit;
  }
  tree.root = current;
  return tree;
}

// ---------------------------------------------------------------------------
// Physical plan construction
// ---------------------------------------------------------------------------

// The parts of physical construction no knob changes, derived once per
// query: each table's scan node and residual predicates.
struct QueryShape {
  struct Leaf {
    PlanNode scan;  // op left to the spool decision
    int storage_id = -1;
    std::vector<int> residual;  // indices of the table's residual predicates
  };
  std::vector<Leaf> leaves;      // per table position
  std::uint32_t stats_mask = 0;  // positions whose table carries statistics
  std::vector<int> residual;     // indices of every residual predicate

  QueryShape(const Catalog& catalog, const Query& query) {
    // Columns each table contributes to the query (for columns_accessed).
    std::vector<int> cols;
    auto columns_used = [&](int table_id) {
      cols.clear();
      for (const Predicate& p : query.predicates) {
        if (p.table_id == table_id) cols.push_back(p.column);
      }
      for (const JoinEdge& j : query.joins) {
        if (j.left_table == table_id) cols.push_back(j.left_column);
        if (j.right_table == table_id) cols.push_back(j.right_column);
      }
      if (query.aggregation) {
        if (query.aggregation->table_id == table_id) {
          cols.push_back(query.aggregation->column);
        }
        for (auto [t, c] : query.aggregation->group_by) {
          if (t == table_id) cols.push_back(c);
        }
      }
      std::sort(cols.begin(), cols.end());
      const auto distinct = std::unique(cols.begin(), cols.end()) - cols.begin();
      return static_cast<int>(std::max<std::ptrdiff_t>(1, distinct));
    };
    leaves.reserve(query.tables.size());
    for (std::size_t pos = 0; pos < query.tables.size(); ++pos) {
      const int table_id = query.tables[pos];
      const Table& t = catalog.table(table_id);
      Leaf& leaf = leaves.emplace_back();
      // Spool reuse keys on the underlying storage, so a snapshot alias of
      // an already-scanned table also qualifies.
      leaf.storage_id = t.alias_of >= 0 ? t.alias_of : table_id;
      leaf.scan.table_id = table_id;
      leaf.scan.schema_epoch = t.schema_epoch;
      double prune = 1.0;
      for (std::size_t i = 0; i < query.predicates.size(); ++i) {
        const Predicate& p = query.predicates[i];
        if (p.table_id != table_id) continue;
        if (p.column == 0) {
          prune *= std::clamp(p.selectivity, 1e-9, 1.0);
        } else {
          leaf.residual.push_back(static_cast<int>(i));
        }
      }
      leaf.scan.partitions_accessed =
          std::max(1, static_cast<int>(std::ceil(t.num_partitions * prune)));
      leaf.scan.columns_accessed = columns_used(table_id);
      leaf.scan.row_width = t.row_width;
      if (catalog.stats(table_id).available) stats_mask |= 1u << pos;
    }
    for (std::size_t i = 0; i < query.predicates.size(); ++i) {
      if (query.predicates[i].column != 0) residual.push_back(static_cast<int>(i));
    }
  }
};

Plan build_physical(const NativeOptimizerConfig& config, const Catalog& catalog,
                    const Query& query, const QueryShape& shape, const JoinTree& tree,
                    const PlannerKnobs& knobs, const CardEstimator& cards) {
  Plan plan;
  const double scale = knobs.card_scale;
  const bool pushdown = knobs.flags.test(Flag::kAggressiveFilterPushdown);
  const bool spool = knobs.flags.test(Flag::kSpoolReuse);
  const bool merge = knobs.flags.test(Flag::kMergeJoinForSorted) &&
                     !knobs.flags.test(Flag::kPreferHashJoin);
  const bool grouped = query.aggregation && !query.aggregation->group_by.empty();

  {
    // Reserve what the construction below adds — overcounting only the
    // exchange a broadcast join saves and the Sort a hash aggregate saves —
    // since the kept plans would otherwise carry up to 2x slack capacity.
    const std::size_t n = query.tables.size();
    std::size_t nodes = n + (n - 1) * (merge ? 5 : 3) + 2;  // + Project, Sink
    if (pushdown) {
      for (const QueryShape::Leaf& leaf : shape.leaves) {
        nodes += leaf.residual.empty() ? 0 : 1;
      }
    } else if (!shape.residual.empty()) {
      ++nodes;
    }
    if (query.aggregation) {
      nodes += 2 + (grouped ? 1 : 0) +
               (grouped && knobs.flags.test(Flag::kPartialAggregation) ? 1 : 0);
    }
    plan.reserve(nodes);
  }

  std::vector<int> scanned_storage;  // for spool reuse
  scanned_storage.reserve(shape.leaves.size());

  // Builds the access path for one base table (scan [+ pushed-down Calc]).
  // A Filter or Calc over `preds`, above `input`.
  auto filter_node = [&](OpType op, int input, const std::vector<int>& preds) {
    PlanNode f;
    f.op = op;
    f.left = input;
    f.filter_preds = preds;
    for (int pi : preds) {
      const Predicate& p = query.predicates[static_cast<std::size_t>(pi)];
      for (FilterFn fn : p.fns) f.filter_fns.push_back(fn);
      f.filter_columns.push_back(catalog.column_identifier(p.table_id, p.column));
    }
    return f;
  };

  // Builds the access path for one base table (scan [+ pushed-down Calc]).
  auto build_leaf = [&](int table_pos) -> int {
    const QueryShape::Leaf& leaf = shape.leaves.at(static_cast<std::size_t>(table_pos));
    PlanNode scan = leaf.scan;
    const bool reuse = spool && std::find(scanned_storage.begin(), scanned_storage.end(),
                                          leaf.storage_id) != scanned_storage.end();
    scan.op = reuse ? OpType::kSpoolRead : OpType::kTableScan;
    scanned_storage.push_back(leaf.storage_id);
    int node = plan.add_node(std::move(scan));
    if (pushdown && !leaf.residual.empty()) {
      // Residual predicates fuse into a Calc right above the scan.
      PlanNode calc = filter_node(OpType::kCalc, node, leaf.residual);
      calc.table_id = leaf.scan.table_id;
      node = plan.add_node(std::move(calc));
    }
    return node;
  };

  auto add_exchange = [&](int input, OpType kind) {
    PlanNode ex;
    ex.op = kind;
    ex.left = input;
    return plan.add_node(std::move(ex));
  };

  // Recursive construction over the join tree.
  auto build = [&](auto& self, int jt_id) -> int {
    const JoinTreeNode& jt = tree.nodes.at(static_cast<std::size_t>(jt_id));
    if (jt.table_pos >= 0) return build_leaf(jt.table_pos);

    int left = self(self, jt.left);
    int right = self(self, jt.right);
    const std::uint32_t left_mask = tree.nodes[static_cast<std::size_t>(jt.left)].mask;
    const std::uint32_t right_mask = tree.nodes[static_cast<std::size_t>(jt.right)].mask;
    const double left_rows = cards.subset_rows(left_mask, false, scale);
    const double right_rows = cards.subset_rows(right_mask, false, scale);

    const JoinEdge& edge = query.joins.at(static_cast<std::size_t>(jt.edge));
    PlanNode join;
    join.join_edge = jt.edge;
    join.join_form = edge.form;
    join.join_columns = {
        catalog.column_identifier(edge.left_table, edge.left_column),
        catalog.column_identifier(edge.right_table, edge.right_column)};

    const double small = std::min(left_rows, right_rows);
    // Broadcasting a misestimated build side is catastrophic (the replica
    // volume scales with the consumer's parallelism), so like production
    // engines we only allow it when every table below the build side carries
    // collected statistics.
    const std::uint32_t build_mask = left_rows < right_rows ? left_mask : right_mask;
    const bool build_stats_ok = (build_mask & ~shape.stats_mask) == 0;
    const bool broadcast = knobs.flags.test(Flag::kEnableBroadcastJoin) &&
                           build_stats_ok &&
                           small <= config.broadcast_threshold &&
                           edge.form == JoinForm::kInner;

    if (broadcast) {
      // Replicate the small side; the big side keeps its partitioning.
      join.op = OpType::kBroadcastHashJoin;
      if (left_rows < right_rows) std::swap(left, right);
      right = add_exchange(right, OpType::kBroadcastExchange);
    } else if (merge) {
      join.op = OpType::kMergeJoin;
      left = add_exchange(left, OpType::kExchange);
      right = add_exchange(right, OpType::kExchange);
      PlanNode sl;
      sl.op = OpType::kSort;
      sl.left = left;
      left = plan.add_node(std::move(sl));
      PlanNode sr;
      sr.op = OpType::kSort;
      sr.left = right;
      right = plan.add_node(std::move(sr));
    } else {
      join.op = OpType::kHashJoin;
      // Build side (smaller input) goes right.
      if (left_rows < right_rows) std::swap(left, right);
      left = add_exchange(left, OpType::kExchange);
      right = add_exchange(right, OpType::kExchange);
    }
    join.left = left;
    join.right = right;
    return plan.add_node(std::move(join));
  };

  int node = build(build, tree.root);

  if (!pushdown && !shape.residual.empty()) {
    // All residual predicates evaluate late, above the final join.
    node = plan.add_node(filter_node(OpType::kFilter, node, shape.residual));
  }

  if (query.aggregation) {
    const Aggregation& agg = query.aggregation.value();
    auto fill_agg = [&](PlanNode& a) {
      a.agg_fn = agg.fn;
      a.agg_columns = {catalog.column_identifier(agg.table_id, agg.column)};
      for (auto [t, c] : agg.group_by) {
        a.group_by_columns.push_back(catalog.column_identifier(t, c));
      }
    };
    if (knobs.flags.test(Flag::kPartialAggregation) && grouped) {
      PlanNode partial;
      partial.op = OpType::kLocalHashAggregate;
      partial.left = node;
      fill_agg(partial);
      node = plan.add_node(std::move(partial));
    }
    if (grouped) node = add_exchange(node, OpType::kExchange);
    const double in_rows =
        cards.subset_rows((1u << query.tables.size()) - 1, false, scale);
    const double groups = cards.aggregate_rows(agg, in_rows, false);
    PlanNode final_agg;
    final_agg.op = (groups > config.sort_agg_ratio * in_rows && in_rows > 1.0)
                       ? OpType::kSortAggregate
                       : OpType::kHashAggregate;
    if (final_agg.op == OpType::kSortAggregate) {
      PlanNode sort;
      sort.op = OpType::kSort;
      sort.left = node;
      node = plan.add_node(std::move(sort));
    }
    final_agg.left = node;
    fill_agg(final_agg);
    node = plan.add_node(std::move(final_agg));
  }

  PlanNode project;
  project.op = OpType::kProject;
  project.left = node;
  node = plan.add_node(std::move(project));
  PlanNode sink;
  sink.op = OpType::kSink;
  sink.left = node;
  plan.set_root(plan.add_node(std::move(sink)));
  return plan;
}

// ---------------------------------------------------------------------------
// Planning entry points
// ---------------------------------------------------------------------------

enum class OrderMode { kSingle, kSyntactic, kDp, kGreedy };

// Table positions are bits of a 32-bit mask everywhere in the optimizer.
const Query& plannable(const Query& query) {
  if (query.tables.empty()) throw std::invalid_argument("query has no tables");
  if (query.tables.size() >= NativeOptimizer::kMaxTables) {
    throw std::invalid_argument(
        "query has " + std::to_string(query.tables.size()) +
        " tables; the native optimizer plans at most " +
        std::to_string(NativeOptimizer::kMaxTables - 1));
  }
  return query;
}

}  // namespace

struct NativeOptimizer::TrialPlanner::State {
  const NativeOptimizer& optimizer;
  const Query& query;
  CardEstimator cards;
  QueryShape shape;
  std::vector<PlannerKnobs> knobs;
  std::vector<JoinTree> trees;        // one per ordering class
  std::vector<std::size_t> tree_of;   // knobs index -> trees index

  State(const NativeOptimizer& opt, const Query& q, std::vector<PlannerKnobs> k)
      : optimizer(opt),
        query(plannable(q)),
        cards(opt.catalog_, q),
        shape(opt.catalog_, q),
        knobs(std::move(k)) {
    const std::size_t n = query.tables.size();
    const bool reorder = optimizer.reordering_enabled(query);
    const JoinGraph graph(query);
    std::optional<DpSplits> dp;  // shared by every DP class
    // One join tree per (mode, card_scale) class, in first-use order.
    std::vector<std::pair<OrderMode, double>> classes;
    for (const PlannerKnobs& kn : knobs) {
      OrderMode mode = OrderMode::kGreedy;
      if (n == 1) {
        mode = OrderMode::kSingle;
      } else if (!reorder && !kn.force_reorder) {
        mode = OrderMode::kSyntactic;
      } else if (static_cast<int>(n) <= optimizer.config_.dp_table_limit) {
        mode = OrderMode::kDp;
      }
      const std::pair<OrderMode, double> key{mode, kn.card_scale};
      const auto it = std::find(classes.begin(), classes.end(), key);
      tree_of.push_back(static_cast<std::size_t>(it - classes.begin()));
      if (it != classes.end()) continue;
      classes.push_back(key);
      JoinTree tree;
      switch (mode) {
        case OrderMode::kSingle:
          tree.nodes.push_back({0, -1, -1, -1, 1u});
          tree.root = 0;
          break;
        case OrderMode::kSyntactic:
          tree = order_syntactic(graph);
          break;
        case OrderMode::kDp:
          if (!dp) dp = dp_splits(graph);
          tree = order_dp(graph, *dp, cards, kn.card_scale);
          break;
        case OrderMode::kGreedy:
          tree = order_greedy(graph, cards, kn.card_scale);
          break;
      }
      trees.push_back(std::move(tree));
    }
  }
};

NativeOptimizer::TrialPlanner::TrialPlanner(const NativeOptimizer& optimizer,
                                            const Query& query,
                                            std::vector<PlannerKnobs> knobs)
    : state_(std::make_unique<const State>(optimizer, query, std::move(knobs))) {}

NativeOptimizer::TrialPlanner::~TrialPlanner() = default;

std::size_t NativeOptimizer::TrialPlanner::size() const { return state_->knobs.size(); }

Plan NativeOptimizer::TrialPlanner::build(std::size_t i) const {
  const State& s = *state_;
  Plan plan = build_physical(s.optimizer.config_, s.optimizer.catalog_, s.query, s.shape,
                             s.trees[s.tree_of.at(i)], s.knobs[i], s.cards);
  s.cards.annotate(plan);
  return plan;
}

Plan NativeOptimizer::optimize(const Query& query, const PlannerKnobs& knobs) const {
  return TrialPlanner(*this, query, {knobs}).build(0);
}

std::vector<Plan> NativeOptimizer::optimize_trials(
    const Query& query, const std::vector<PlannerKnobs>& knobs) const {
  const TrialPlanner planner(*this, query, knobs);
  std::vector<Plan> plans;
  plans.reserve(planner.size());
  for (std::size_t i = 0; i < planner.size(); ++i) plans.push_back(planner.build(i));
  return plans;
}

double NativeOptimizer::rough_cost(const Plan& plan) const {
  double cost = 0.0;
  for (const PlanNode& n : plan.nodes()) {
    double in_rows = 0.0;
    if (n.left >= 0) in_rows += plan.node(n.left).est_rows;
    if (n.right >= 0) in_rows += plan.node(n.right).est_rows;
    cost += op_unit_cost(n.op) * (in_rows + n.est_rows);
  }
  return cost;
}

}  // namespace loam::warehouse
