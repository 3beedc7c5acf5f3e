// The native cost-based optimizer of the simulated warehouse: the component
// LOAM steers (Section 3) and the "MaxCompute" baseline of the evaluation.
//
// Pipeline:
//   1. join ordering — dynamic programming over connected subsets when
//      statistics are available for every referenced table and the query is
//      small enough; greedy expansion for large queries; when statistics are
//      missing, join reordering is DISABLED and the syntactic (FROM-clause)
//      order is used, exactly the degradation Section 2.1 describes;
//   2. physical operator selection — hash / merge / broadcast joins,
//      hash / sort aggregation, partial aggregation, spool reuse, filter
//      placement — all governed by the six steering flags of `flags.h`;
//   3. exchange placement at every co-partitioning boundary;
//   4. cardinality annotation (estimated + true faces).
//
// The Lero-style knob `PlannerKnobs::card_scale` biases the estimated
// cardinality of every >= 3-input subquery, perturbing the join-order search.
//
// The estimates every step reads depend only on the query, and step 1 only
// on the query and the knobs' (ordering mode, card_scale) class, so
// optimize_trials() estimates once per query, orders joins once per class
// and runs only steps 2-4 per trial.
#ifndef LOAM_WAREHOUSE_NATIVE_OPTIMIZER_H_
#define LOAM_WAREHOUSE_NATIVE_OPTIMIZER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "warehouse/cardinality.h"
#include "warehouse/catalog.h"
#include "warehouse/flags.h"
#include "warehouse/plan.h"
#include "warehouse/query.h"

namespace loam::warehouse {

struct NativeOptimizerConfig {
  int dp_table_limit = 10;           // DP join ordering up to this many tables
  double broadcast_threshold = 2e5;  // max build-side rows for broadcast joins
  double sort_agg_ratio = 0.5;       // groups/input above which sort-agg wins
};

class NativeOptimizer {
 public:
  // Table masks are 32-bit: queries with this many tables or more are
  // rejected with std::invalid_argument.
  static constexpr std::size_t kMaxTables = 32;

  explicit NativeOptimizer(const Catalog& catalog,
                           NativeOptimizerConfig config = NativeOptimizerConfig());

  // Compiles and optimizes `query` under the given knob settings. The
  // returned plan is fully annotated (est_rows + true_rows) and staged
  // lazily by the executor.
  Plan optimize(const Query& query, const PlannerKnobs& knobs = PlannerKnobs()) const;

  // Optimizes one query under several knob settings: plans[i] is
  // bit-identical to optimize(query, knobs[i]), but the query is planned
  // once (see TrialPlanner).
  std::vector<Plan> optimize_trials(const Query& query,
                                    const std::vector<PlannerKnobs>& knobs) const;

  // The shared half of optimize_trials(), split out so trials can be built
  // concurrently. Construction validates the query, builds one
  // CardEstimator and the knob-independent scan nodes, and computes one
  // join tree per ordering class — single table, syntactic, DP or greedy,
  // each at its card_scale; the DP classes share one enumeration of
  // connected subsets and their splits. build(i) then runs only physical
  // construction and annotation for knobs[i]; it is const and safe to call
  // from several threads at once. The optimizer and the query must outlive
  // the planner.
  class TrialPlanner {
   public:
    TrialPlanner(const NativeOptimizer& optimizer, const Query& query,
                 std::vector<PlannerKnobs> knobs);
    ~TrialPlanner();

    std::size_t size() const;
    Plan build(std::size_t i) const;

   private:
    struct State;
    std::unique_ptr<const State> state_;
  };

  // The coarse cost the engine attaches to a plan from estimated
  // cardinalities; the plan explorer uses it to retain the top-k candidates
  // (Section 7.1: "top-5 candidates ... based on MaxCompute's rough cost
  // estimates").
  double rough_cost(const Plan& plan) const;

  // True whether join reordering is active for this query (all referenced
  // tables carry statistics).
  bool reordering_enabled(const Query& query) const;

  const Catalog& catalog() const { return catalog_; }

 private:
  const Catalog& catalog_;
  NativeOptimizerConfig config_;
};

}  // namespace loam::warehouse

#endif  // LOAM_WAREHOUSE_NATIVE_OPTIMIZER_H_
