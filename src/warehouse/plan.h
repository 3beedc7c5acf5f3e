// Physical plans: binary operator trees with the 30 operator types MaxCompute
// supports (Section 4 encodes the most frequent, cost-impacting classes).
//
// Each node carries two cardinality annotations:
//   * est_rows — what the native optimizer's cost model believes (derived
//     from the possibly-missing statistics view; this is all LOAM may use);
//   * true_rows — ground truth, visible only to the execution simulator.
#ifndef LOAM_WAREHOUSE_PLAN_H_
#define LOAM_WAREHOUSE_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
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

// A plan is a value with copy-on-write node storage: copying one shares the
// nodes (a refcount bump), and the first mutable access through either
// holder — add_node, reserve, mutable_node, mutable_nodes — clones them, so
// neither side ever observes the other's writes. Whether to clone is decided
// by a sticky flag that every copy sets on the storage and nothing clears,
// not by shared_ptr::use_count(): storage that was never shared is reachable
// only through this object, so an in-place write is ordered by whatever
// already orders the caller's accesses to the object, while storage that was
// shared may still be read by another thread (a memo entry's plans are
// copied out on every hit), and a relaxed use_count() of 1 would not order
// the write after those reads. Shared storage is therefore never written
// again. References and pointers from node()/nodes() taken before the first
// mutable access refer to the pre-clone storage; take them after it.
class Plan {
 public:
  Plan() = default;
  Plan(const Plan& other) : nodes_(other.share()), root_(other.root_) {}
  Plan(Plan&& other) noexcept = default;
  Plan& operator=(const Plan& other) {
    if (this != &other) {
      nodes_ = other.share();
      root_ = other.root_;
    }
    return *this;
  }
  Plan& operator=(Plan&& other) noexcept = default;

  int add_node(PlanNode node);
  void reserve(std::size_t nodes) { writable().reserve(nodes); }
  void set_root(int id) { root_ = id; }
  int root() const { return root_; }

  int node_count() const { return static_cast<int>(nodes().size()); }
  const PlanNode& node(int id) const { return nodes().at(static_cast<std::size_t>(id)); }
  PlanNode& mutable_node(int id) { return writable().at(static_cast<std::size_t>(id)); }
  const std::vector<PlanNode>& nodes() const;
  std::vector<PlanNode>& mutable_nodes() { return writable(); }

  // True while this plan's nodes may be shared with another Plan (some copy
  // of the storage was ever made); the next mutable access clones them.
  // Exposed for tests.
  bool shares_storage() const {
    return nodes_ != nullptr && nodes_->shared.load(std::memory_order_relaxed);
  }

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
  struct Storage {
    std::vector<PlanNode> nodes;
    // Set by every copy of a Plan holding this storage; never cleared. The
    // store and load can be relaxed: the flag is only read by a mutable
    // access, which the caller must already order after any copy made from
    // the same Plan object, and a copy made from another holder set it
    // before that holder existed.
    std::atomic<bool> shared{false};
  };

  // The storage, flagged as shared, for a new copy.
  std::shared_ptr<Storage> share() const {
    if (nodes_ != nullptr) nodes_->shared.store(true, std::memory_order_relaxed);
    return nodes_;
  }
  // The nodes for writing: allocates storage for an empty plan and clones
  // storage that was ever shared.
  std::vector<PlanNode>& writable();

  std::shared_ptr<Storage> nodes_;
  int root_ = -1;
};

}  // namespace loam::warehouse

#endif  // LOAM_WAREHOUSE_PLAN_H_
