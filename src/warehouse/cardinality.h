// Cardinality model with two faces:
//
//   * the TRUE face — derived from ground-truth table sizes, NDVs, the
//     instantiated predicate selectivities, and hidden per-join correlation
//     factors; consumed only by the execution simulator;
//   * the ESTIMATED face — what the native optimizer's cost model can
//     compute from the (possibly missing or stale) statistics view. When
//     statistics are missing it falls back to coarse metadata-driven
//     approximations (historical row counts, default selectivities), which
//     is precisely what makes default plans suboptimal (Section 2.1).
//
// The Lero-style scaled-cardinality knob multiplies the ESTIMATED output of
// every join subquery with >= 3 base inputs by `card_scale`, steering the
// join-order search without touching the truth.
//
// One estimator serves every planning trial of a query: the constructor
// precomputes, for both faces, the per-position scan factors, the per-edge
// join selectivities and the per-predicate selectivities, each produced by
// the accessor below that defines it and combined in the accessor's order,
// so subset_rows() and annotate() return the same bits as evaluating the
// accessors on every call.
#ifndef LOAM_WAREHOUSE_CARDINALITY_H_
#define LOAM_WAREHOUSE_CARDINALITY_H_

#include <array>
#include <cstdint>
#include <vector>

#include "warehouse/catalog.h"
#include "warehouse/plan.h"
#include "warehouse/query.h"

namespace loam::warehouse {

class CardEstimator {
 public:
  CardEstimator(const Catalog& catalog, const Query& query, double card_scale = 1.0);

  // Rows produced by scanning `table_id` after partition pruning (predicates
  // on the table's partition column, by convention column 0).
  double scan_rows(int table_id, bool truth) const;
  // Combined selectivity of the non-partition predicates on a table.
  double residual_filter_selectivity(int table_id, bool truth) const;
  // Per-edge join selectivity: 1 / max(ndv_l, ndv_r), corrected by the hidden
  // correlation factor on the true face.
  double join_selectivity(const JoinEdge& edge, bool truth) const;
  // Cardinality of the join of the table subset given by `mask` (bit i set =
  // query.tables[i] participates), with all filters applied. Used by the
  // join-order search on the estimated face; `truth` gives the ground truth.
  double subset_rows(std::uint32_t mask, bool truth) const {
    return subset_rows(mask, truth, card_scale_);
  }
  // The same with an explicit scale in place of the constructor's, so one
  // estimator can serve trials that differ in PlannerKnobs::card_scale.
  double subset_rows(std::uint32_t mask, bool truth, double card_scale) const;

  // Output rows of a grouped aggregation over `input_rows`.
  double aggregate_rows(const Aggregation& agg, double input_rows, bool truth) const;

  // Walks the plan in post order and fills both est_rows and true_rows for
  // every node. Independent of card_scale, which only enters subset_rows().
  void annotate(Plan& plan) const;

  // Hidden correlation factor of a join edge; deterministic in the joined
  // column identifiers so recurring joins behave consistently across queries
  // (which is what lets LOAM infer it from history). Exposed for tests.
  double true_correlation(const JoinEdge& edge) const;

  const Query& query() const { return query_; }

 private:
  double ndv(int table_id, int column, bool truth) const;
  double base_rows(int table_id, bool truth) const;
  double pred_selectivity(const Predicate& pred, bool truth) const;

  // aggregate_rows() over the query's own aggregation, from the
  // precomputed group-by NDV product.
  double query_aggregate_rows(double input_rows, bool truth) const;

  // Everything subset_rows() and annotate() read; each pair is indexed by
  // `truth`.
  struct Position {                  // per query.tables entry
    std::array<double, 2> rows{};    // scan_rows * residual_filter_selectivity
    std::array<double, 2> scan{};    // scan_rows
  };
  struct Edge {                      // per query.joins entry
    int a = -1, b = -1;              // endpoint table positions (-1: absent)
    std::array<double, 2> sel{};     // join_selectivity
  };

  const Catalog& catalog_;
  const Query& query_;
  double card_scale_ = 1.0;
  std::vector<Position> positions_;
  std::vector<Edge> edges_;
  std::vector<std::array<double, 2>> pred_sel_;  // per query.predicates entry
  std::array<double, 2> group_ndv_{1.0, 1.0};    // product of group-by NDVs
};

}  // namespace loam::warehouse

#endif  // LOAM_WAREHOUSE_CARDINALITY_H_
