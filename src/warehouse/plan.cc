#include "warehouse/plan.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>

#include "util/hash.h"

namespace loam::warehouse {

const char* op_name(OpType op) {
  switch (op) {
    case OpType::kTableScan: return "TableScan";
    case OpType::kFilter: return "Filter";
    case OpType::kCalc: return "Calc";
    case OpType::kProject: return "Project";
    case OpType::kHashJoin: return "HashJoin";
    case OpType::kMergeJoin: return "MergeJoin";
    case OpType::kNestedLoopJoin: return "NestedLoopJoin";
    case OpType::kBroadcastHashJoin: return "BroadcastHashJoin";
    case OpType::kHashAggregate: return "HashAggregate";
    case OpType::kSortAggregate: return "SortAggregate";
    case OpType::kLocalHashAggregate: return "LocalHashAggregate";
    case OpType::kSort: return "Sort";
    case OpType::kExchange: return "Exchange";
    case OpType::kBroadcastExchange: return "BroadcastExchange";
    case OpType::kLocalExchange: return "LocalExchange";
    case OpType::kLimit: return "Limit";
    case OpType::kTopN: return "TopN";
    case OpType::kWindow: return "Window";
    case OpType::kUnionAll: return "UnionAll";
    case OpType::kExpand: return "Expand";
    case OpType::kValues: return "Values";
    case OpType::kSink: return "Sink";
    case OpType::kSpoolWrite: return "SpoolWrite";
    case OpType::kSpoolRead: return "SpoolRead";
    case OpType::kLateralView: return "LateralView";
    case OpType::kUserDefinedFn: return "UserDefinedFn";
    case OpType::kSelectTransform: return "SelectTransform";
    case OpType::kDynamicFilter: return "DynamicFilter";
    case OpType::kRangePartition: return "RangePartition";
    case OpType::kSampling: return "Sampling";
    default: return "?";
  }
}

bool is_join(OpType op) {
  return op == OpType::kHashJoin || op == OpType::kMergeJoin ||
         op == OpType::kNestedLoopJoin || op == OpType::kBroadcastHashJoin;
}

bool is_aggregate(OpType op) {
  return op == OpType::kHashAggregate || op == OpType::kSortAggregate ||
         op == OpType::kLocalHashAggregate;
}

bool is_exchange(OpType op) {
  return op == OpType::kExchange || op == OpType::kBroadcastExchange ||
         op == OpType::kLocalExchange;
}

bool is_filter_like(OpType op) {
  return op == OpType::kFilter || op == OpType::kCalc;
}

const std::vector<PlanNode>& Plan::nodes() const {
  static const std::vector<PlanNode> kEmpty;
  return nodes_ != nullptr ? nodes_->nodes : kEmpty;
}

std::vector<PlanNode>& Plan::writable() {
  if (nodes_ == nullptr) {
    nodes_ = std::make_shared<Storage>();
  } else if (nodes_->shared.load(std::memory_order_relaxed)) {
    auto fresh = std::make_shared<Storage>();
    fresh->nodes = nodes_->nodes;
    nodes_ = std::move(fresh);
  }
  return nodes_->nodes;
}

int Plan::add_node(PlanNode node) {
  std::vector<PlanNode>& nodes = writable();
  nodes.push_back(std::move(node));
  return static_cast<int>(nodes.size()) - 1;
}

std::vector<int> Plan::postorder() const {
  std::vector<int> order;
  order.reserve(nodes().size());
  if (root_ < 0) return order;
  // Iterative post-order to stay safe on deep trees.
  std::vector<std::pair<int, bool>> stack{{root_, false}};
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      order.push_back(id);
      continue;
    }
    stack.emplace_back(id, true);
    const PlanNode& n = node(id);
    if (n.right >= 0) stack.emplace_back(n.right, false);
    if (n.left >= 0) stack.emplace_back(n.left, false);
  }
  return order;
}

namespace {

// Order-sensitive combinator (sig(a, b) != sig(b, a)) so column lists and
// attribute sequences hash by position, not by set.
std::uint64_t sig_combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v * 0x9e3779b97f4a7c15ull) ^ 0x7f4a7c15ull);
}

std::uint64_t sig_str(std::uint64_t h, const std::string& s) {
  return sig_combine(h, hash64(s, 3));
}

}  // namespace

int Plan::est_card_bucket(double est_rows) {
  if (!(est_rows > 0.0)) return 0;  // also maps NaN/negatives to the 0 bucket
  return 1 + static_cast<int>(std::floor(std::log2(1.0 + est_rows)));
}

std::uint64_t Plan::signature() const {
  constexpr std::uint64_t kNoChild = 0x5bd1e995u;
  if (root_ < 0) return kNoChild;
  // Bottom-up: postorder() hashes every child before its parent.
  std::vector<std::uint64_t> hashes(nodes().size(), kNoChild);
  for (const int id : postorder()) {
    const PlanNode& n = node(id);
    std::uint64_t h = mix64(static_cast<std::uint64_t>(n.op) + 0x100);
    // Leaf identity: which table, how much of it survives partition pruning,
    // and how wide the read is.
    h = sig_combine(h, static_cast<std::uint64_t>(n.table_id + 2));
    h = sig_combine(h, static_cast<std::uint64_t>(n.partitions_accessed + 1));
    h = sig_combine(h, static_cast<std::uint64_t>(n.columns_accessed + 1));
    // Schema generation of the scanned table: a migration bumps the epoch,
    // so plans over the old schema can never collide with post-migration
    // plans in any signature-keyed cache.
    h = sig_combine(h, static_cast<std::uint64_t>(n.schema_epoch) + 0xd000);
    // Join surface.
    h = sig_combine(h, static_cast<std::uint64_t>(n.join_form) + 0x9000);
    h = sig_combine(h, static_cast<std::uint64_t>(n.join_edge + 2));
    for (const auto& c : n.join_columns) h = sig_str(h, c);
    // Aggregation surface.
    h = sig_combine(h, static_cast<std::uint64_t>(n.agg_fn) + 0xa000);
    for (const auto& c : n.agg_columns) h = sig_str(h, c);
    for (const auto& c : n.group_by_columns) h = sig_str(h, c);
    // Filter surface (Filter and Calc alike).
    for (const FilterFn f : n.filter_fns) {
      h = sig_combine(h, static_cast<std::uint64_t>(f) + 0xf000);
    }
    for (const auto& c : n.filter_columns) h = sig_str(h, c);
    // Statistics input: bucketized ESTIMATED cardinality only — true_rows is
    // ground truth and must never reach a serving-path key.
    h = sig_combine(h,
                    static_cast<std::uint64_t>(est_card_bucket(n.est_rows)) + 0xc000);
    const auto child = [&](int c) {
      return c < 0 ? kNoChild : hashes[static_cast<std::size_t>(c)];
    };
    h = mix64(h ^ (child(n.left) * 0x9e3779b97f4a7c15ull));
    h = mix64(h ^ (child(n.right) * 0xc2b2ae3d27d4eb4full));
    hashes[static_cast<std::size_t>(id)] = h;
  }
  return hashes[static_cast<std::size_t>(root_)];
}

std::vector<std::pair<std::pair<OpType, OpType>, int>> Plan::parent_child_patterns()
    const {
  std::map<std::pair<OpType, OpType>, int> counts;
  for (const PlanNode& n : nodes()) {
    for (int c : {n.left, n.right}) {
      if (c >= 0) ++counts[{n.op, node(c).op}];
    }
  }
  return {counts.begin(), counts.end()};
}

std::string Plan::to_string() const {
  std::ostringstream out;
  std::function<void(int, int)> render = [&](int id, int indent) {
    if (id < 0) return;
    const PlanNode& n = node(id);
    out << std::string(static_cast<std::size_t>(indent) * 2, ' ') << op_name(n.op);
    if (n.op == OpType::kTableScan || n.op == OpType::kSpoolRead) {
      out << "(t" << n.table_id << ", parts=" << n.partitions_accessed
          << ", cols=" << n.columns_accessed << ")";
    }
    if (is_join(n.op)) out << "(" << join_form_name(n.join_form) << ")";
    if (is_aggregate(n.op)) out << "(" << agg_fn_name(n.agg_fn) << ")";
    out << " est=" << static_cast<long long>(n.est_rows)
        << " true=" << static_cast<long long>(n.true_rows);
    if (n.stage >= 0) out << " stage=" << n.stage;
    out << "\n";
    render(n.left, indent + 1);
    render(n.right, indent + 1);
  };
  render(root_, 0);
  return out.str();
}

}  // namespace loam::warehouse
