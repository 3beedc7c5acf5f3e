// Physical plans: binary operator trees with the 30 operator types MaxCompute
// supports (Section 4 encodes the most frequent, cost-impacting classes).
//
// Each node carries two cardinality annotations:
//   * est_rows — what the native optimizer's cost model believes (derived
//     from the possibly-missing statistics view; this is all LOAM may use);
//   * true_rows — ground truth, visible only to the execution simulator.
#ifndef LOAM_WAREHOUSE_PLAN_H_
#define LOAM_WAREHOUSE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "warehouse/query.h"

namespace loam::warehouse {

enum class OpType : std::uint8_t {
  kTableScan = 0,
  kFilter,
  kCalc,             // fused filter + projection
  kProject,
  kHashJoin,
  kMergeJoin,
  kNestedLoopJoin,
  kBroadcastHashJoin,
  kHashAggregate,
  kSortAggregate,
  kLocalHashAggregate,  // partial (pre-shuffle) aggregation
  kSort,
  kExchange,            // data reshuffle across machines (stage boundary)
  kBroadcastExchange,   // replicate to every instance (stage boundary)
  kLocalExchange,
  kLimit,
  kTopN,
  kWindow,
  kUnionAll,
  kExpand,
  kValues,
  kSink,
  kSpoolWrite,          // materialize a shared subtree
  kSpoolRead,           // re-read a previously spooled result
  kLateralView,
  kUserDefinedFn,
  kSelectTransform,
  kDynamicFilter,
  kRangePartition,
  kSampling,
  kCount,               // == 30
};
static_assert(static_cast<int>(OpType::kCount) == 30,
              "MaxCompute supports 30 operator types (Section 4)");

const char* op_name(OpType op);
bool is_join(OpType op);
bool is_aggregate(OpType op);
bool is_exchange(OpType op);
bool is_filter_like(OpType op);

struct PlanNode {
  OpType op = OpType::kTableScan;
  int left = -1;
  int right = -1;

  // --- operator attributes (the statistics-free encodable surface) ---
  // TableScan:
  int table_id = -1;
  int partitions_accessed = 0;
  int columns_accessed = 0;
  // The scanned table's Table::schema_epoch at plan-build time; part of
  // signature() so pre-migration cache entries are unreachable afterwards.
  int schema_epoch = 0;
  // Joins:
  JoinForm join_form = JoinForm::kInner;
  std::vector<std::string> join_columns;  // fully qualified identifiers
  int join_edge = -1;                     // index into Query::joins
  // Aggregations:
  AggFn agg_fn = AggFn::kSum;
  std::vector<std::string> agg_columns;
  std::vector<std::string> group_by_columns;
  // Filter / Calc:
  std::vector<FilterFn> filter_fns;
  std::vector<std::string> filter_columns;
  std::vector<int> filter_preds;  // indices into Query::predicates

  // --- cardinalities ---
  double est_rows = 0.0;   // optimizer estimate
  double true_rows = 0.0;  // ground truth (executor only)
  double row_width = 64.0;

  // Filled by stage decomposition.
  int stage = -1;
};

class Plan {
 public:
  int add_node(PlanNode node);
  void reserve(std::size_t nodes) { nodes_.reserve(nodes); }
  void set_root(int id) { root_ = id; }
  int root() const { return root_; }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  const PlanNode& node(int id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  PlanNode& mutable_node(int id) { return nodes_.at(static_cast<std::size_t>(id)); }
  const std::vector<PlanNode>& nodes() const { return nodes_; }
  std::vector<PlanNode>& mutable_nodes() { return nodes_; }

  // Node ids in post order (children before parents); every internal
  // algorithm (cardinality annotation, staging, execution) walks this.
  std::vector<int> postorder() const;

  // Bucketized estimated cardinality as it enters signature():
  // floor(log2(1 + est)), i.e. factor-2 bands, so deterministic re-annotation
  // reproduces the bucket exactly while sub-band jitter cannot split cache
  // keys. Exposed for tests.
  static int est_card_bucket(double est_rows);

  // Semantic signature: hashes the operator tree together with every node
  // attribute that feeds featurization — leaf table/partition/column
  // identity, join form + columns, aggregation and filter surfaces — plus
  // the bucketized ESTIMATED cardinalities (the statistics input of the
  // native cost model). Ground-truth cardinalities (true_rows) never enter
  // the signature: they are invisible at serving time and must not leak
  // into a cache key. Used both for candidate-plan deduplication (computed
  // on the common estimate face) and as the plan half of every loam::cache
  // key.
  std::uint64_t signature() const;

  // Count of <parent-op, child-op> adjacent pairs, the Ranker plan encoding
  // of Appendix D.2.
  std::vector<std::pair<std::pair<OpType, OpType>, int>> parent_child_patterns() const;

  std::string to_string() const;  // indented tree rendering

 private:
  std::vector<PlanNode> nodes_;
  int root_ = -1;
};

}  // namespace loam::warehouse

#endif  // LOAM_WAREHOUSE_PLAN_H_
