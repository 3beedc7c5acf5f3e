// Statistics-free plan vectorization (Section 4, Fig. 4, Appendix B).
//
// Every plan-tree node becomes one feature vector:
//
//   [ 30  op-type one-hot                                          ]
//   [ 5xN' multi-segment hash of the scanned table identifier      ]
//   [ 2   log-min-max #partitions, #columns accessed               ]
//   [ 4   join-form one-hot                                        ]
//   [ 5xN' hash union of the joined column identifiers             ]
//   [ 5   aggregation-function one-hot                             ]
//   [ 5xN' hash union of aggregate + group-by column identifiers   ]
//   [ 8   filter-function multi-hot                                ]
//   [ 5xN' hash union of filtered column identifiers               ]
//   [ 4   execution-environment features (stage-shared)            ]
//
// No histogram, NDV or cardinality feature appears anywhere — the model must
// infer data-distribution detail from operator attributes plus historical
// costs (Challenge 2). Environment features come from the executing stage's
// telemetry during training and from an inference strategy (Section 5) at
// serving time; all nodes of one stage share one environment vector.
#ifndef LOAM_CORE_ENCODING_H_
#define LOAM_CORE_ENCODING_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/cache.h"
#include "cache/lru.h"
#include "nn/tree_conv.h"
#include "util/hash.h"
#include "util/stats.h"
#include "warehouse/catalog.h"
#include "warehouse/executor.h"
#include "warehouse/plan.h"

namespace loam::core {

struct EncodingConfig {
  MultiSegmentHashConfig table_hash{5, 8};
  MultiSegmentHashConfig column_hash{5, 8};
  // LOAM-NL ablation: drop the environment block entirely.
  bool include_env = true;
  // Node-row memo: capacity of the per-node attribute-row cache (0 = off).
  // Plans within one workload share most of their subtrees (same scans, same
  // join edges under different orders), so the attribute prefix of a node's
  // feature row — everything except the environment block — is recomputed
  // constantly. Rows are keyed on every attribute the prefix reads, making
  // hits bit-identical to recomputation.
  std::size_t row_cache_capacity = 0;
};

// Node-row memo size an encoder gets from with_row_cache().
inline constexpr std::size_t kRowCacheCapacity = 4096;

// The node-row memo follows the inference cache's switch: rows repeat
// massively across a workload's plans and memoized rows are bit-identical to
// recomputed ones, so it needs no switch of its own. Keeps `encoding`'s
// row_cache_capacity when above 0, else kRowCacheCapacity while either of
// the cache's tables has capacity; a cache with both tables off turns it
// off too.
EncodingConfig with_row_cache(EncodingConfig encoding,
                              const cache::CacheConfig& cache);

class PlanEncoder {
 public:
  PlanEncoder(const warehouse::Catalog* catalog, EncodingConfig config = EncodingConfig());

  int feature_dim() const;

  // Fits the log-min-max normalizers of the numeric attributes over a
  // training corpus of plans.
  void fit_normalizers(const std::vector<const warehouse::Plan*>& plans);

  // Encodes a plan into a vectorized binary tree.
  //   * stage_envs — per-stage environment features observed during
  //     execution (training path); indexed by PlanNode::stage.
  //   * fixed_env — one environment used for every node (inference path).
  // Pass neither to zero-fill the environment block.
  nn::Tree encode(const warehouse::Plan& plan,
                  const std::vector<warehouse::EnvFeatures>* stage_envs,
                  const std::optional<warehouse::EnvFeatures>& fixed_env) const;

  const EncodingConfig& config() const { return config_; }

  // Offsets of the feature blocks (exposed for tests).
  struct Layout {
    int op = 0;
    int table = 0;
    int scan_numeric = 0;
    int join_form = 0;
    int join_cols = 0;
    int agg_fn = 0;
    int agg_cols = 0;
    int filter_fns = 0;
    int filter_cols = 0;
    int env = 0;
    int total = 0;
  };
  Layout layout() const { return layout_; }

  // Always-on counters of the node-row memo (all zero when disabled).
  cache::CacheStats row_cache_stats() const;

 private:
  // Fills the attribute prefix [0, layout_.env) of one node's feature row;
  // the environment block is appended by encode() itself (it depends on the
  // call's env arguments, which the row memo must not capture).
  void encode_attr_row(const warehouse::PlanNode& node, std::span<float> row) const;
  static std::uint64_t node_row_key(const warehouse::PlanNode& node);

  const warehouse::Catalog* catalog_;
  EncodingConfig config_;
  Layout layout_;
  LogMinMax partitions_norm_;
  LogMinMax columns_norm_;
  // unique_ptr keeps the encoder movable-in-place while making accidental
  // copies (which would fork the memo) a compile error. Cleared whenever the
  // normalizers are refit — the rows they produced are stale after that.
  mutable std::unique_ptr<cache::ShardedLru<std::shared_ptr<const std::vector<float>>>>
      row_cache_;
};

}  // namespace loam::core

#endif  // LOAM_CORE_ENCODING_H_
