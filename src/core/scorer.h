// The one candidate-scoring step of the learned optimizer (Section 3, with
// the environment strategies of Section 5): encode every explored candidate,
// score it with a CostModel, and pick the argmin. The offline deployment,
// every serve shard, the service's deployment-gate closures and the modular
// learner all score through this class; no other code in src/ encodes
// candidates for a model or calls its batch predict.
//
// Each caller passes its own inputs — the encoder, the environment block the
// candidates are encoded under (nullopt = zero-filled block) and, optionally,
// an InferenceCache — so nothing here branches on which caller is served.
// The cache is a layer, never a switch: a score hit skips encode and infer,
// an encoding hit skips featurization, and a zero-capacity cache (or none)
// simply misses every time. Hits return values the miss path would
// recompute bit for bit, so scores and argmins never depend on cache state.
#ifndef LOAM_CORE_SCORER_H_
#define LOAM_CORE_SCORER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cache/cache.h"
#include "core/cost_model.h"
#include "core/encoding.h"
#include "core/explorer.h"

namespace loam::core {

// Index of the smallest score, scanning from index 0 and replacing the best
// only on a strictly smaller value: the first index wins ties, and a NaN at
// index 0 is kept (every comparison against it is false). 0 for empty input.
int argmin(std::span<const double> scores);

class CandidateScorer {
 public:
  // `encoder` and `cache` are borrowed and must outlive the scorer; `cache`
  // may be null.
  CandidateScorer(const PlanEncoder* encoder,
                  std::optional<warehouse::EnvFeatures> env,
                  cache::InferenceCache* cache = nullptr);

  // Scores every candidate of every generation with ONE predict_batch_ptrs
  // call over the cache misses of all of them; generation g's scores land in
  // *scores[g], one per plan in plan order. `model_epoch` keys the score
  // cache: it must change whenever the model's weights or scaler change
  // (serve passes the registry version, offline callers a retrain epoch).
  void score(const CostModel& model, std::int64_t model_epoch,
             std::span<const CandidateGeneration* const> generations,
             std::span<std::vector<double>* const> scores) const;

  // One generation: scores it into *scores (when non-null) and returns the
  // argmin.
  int select(const CostModel& model, const CandidateGeneration& generation,
             std::int64_t model_epoch = 0,
             std::vector<double>* scores = nullptr) const;

 private:
  const PlanEncoder* encoder_;
  std::optional<warehouse::EnvFeatures> env_;
  // cache::fingerprint of the four env values, or 0x9e1deb with no env
  // block, so the no-env encoding never aliases an all-zero environment.
  std::uint64_t env_fp_;
  cache::InferenceCache* cache_;
};

}  // namespace loam::core

#endif  // LOAM_CORE_SCORER_H_
