// loam::cache — memoized inference across the pipeline.
//
// One InferenceCache instance bundles the two memo tables the scoring path
// needs (Bao's observation: plan-choice workloads are dominated by repeated
// plan structures, so caching learned-model evaluations is the lever on
// optimizer overhead):
//
//   * encodings — Plan::signature() ⊕ environment fingerprint
//                   -> shared_ptr<const nn::Tree> (the featurized plan);
//   * scores    — Plan::signature() ⊕ environment fingerprint ⊕ model epoch
//                   -> double (the predictor's cost for that plan).
//
// The model epoch in the score key is what makes hot-swap invalidation
// structural rather than operational: serve keys scores by the REGISTRY
// VERSION that produced them, so after a swap every lookup under the new
// version misses by construction — a stale entry cannot be served, it can
// only age out of the LRU. Offline deployments bump a local epoch on every
// (re)train for the same effect.
//
// Caching is bit-exact, never approximate: a hit returns a value previously
// computed by the exact code path a miss would run, and both PlanEncoder
// and predict_batch_ptrs are deterministic functions of the key's inputs.
// Tests assert that scores, gate verdicts, and served plan choices are
// bit-identical with warm, cold and zero-capacity caches. Capacity 0 is the
// only off switch: a zero-capacity table misses every get and drops every
// put (ShardedLru).
//
// Metrics: loam.cache.<name>.{enc,score}.{hits,misses,inserts,evictions}
// counters plus loam.cache.<name>.{enc,score}.size gauges (obs-gated; the
// always-on CacheStats counters on the LRU itself serve tests and
// BENCH_cache.json).
#ifndef LOAM_CACHE_CACHE_H_
#define LOAM_CACHE_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "cache/lru.h"
#include "nn/tree_conv.h"

namespace loam::obs {
class Counter;
class Gauge;
}  // namespace loam::obs

namespace loam::cache {

// Order-sensitive key combinator (distinct from XOR-folding: combine(a, b)
// != combine(b, a)), splitmix-finalized at every step.
std::uint64_t combine(std::uint64_t a, std::uint64_t b);

// Fingerprint of a small numeric vector (e.g. the four environment
// features) by exact bit pattern — two environments key alike only when
// every double is bit-identical, which is exactly when the encoder would
// produce the same rows.
std::uint64_t fingerprint(std::span<const double> values);

struct CacheConfig {
  // Featurized plans. Off by default: a score hit skips the encoding lookup,
  // so the table only re-hits after a model change — in serve after a hot
  // swap, where re-encoding a memoized candidate set costs ~3 plans once per
  // version, and never in LoamDeployment, whose train() clears both tables.
  std::size_t encoding_capacity = 0;
  std::size_t score_capacity = 1 << 16;   // final ranker/predictor scores
  int shards = 8;                         // lock stripes per table
};

class InferenceCache {
 public:
  // `name` scopes the obs series: loam.cache.<name>.*
  InferenceCache(const std::string& name, CacheConfig config);

  const CacheConfig& config() const { return config_; }

  // --- key builders (pure) ---
  static std::uint64_t encoding_key(std::uint64_t plan_key, std::uint64_t env_fp);
  // `model_epoch` is the registry version (serve) or a local retrain epoch
  // (offline deployments); it MUST change whenever the model's weights or
  // scaler change.
  static std::uint64_t score_key(std::uint64_t plan_key, std::uint64_t env_fp,
                                 std::int64_t model_epoch);

  // --- encodings ---
  std::shared_ptr<const nn::Tree> get_encoding(std::uint64_t key);
  void put_encoding(std::uint64_t key, std::shared_ptr<const nn::Tree> tree);

  // --- scores ---
  std::optional<double> get_score(std::uint64_t key);
  void put_score(std::uint64_t key, double score);

  // Drops all entries from both tables (used when the ENCODER itself
  // changes, e.g. refit normalizers — epoch keying already covers model
  // changes).
  void clear();

  CacheStats encoding_stats() const { return encodings_.stats(); }
  CacheStats score_stats() const { return scores_.stats(); }
  std::size_t encoding_size() const { return encodings_.size(); }
  std::size_t score_size() const { return scores_.size(); }

 private:
  CacheConfig config_;
  ShardedLru<std::shared_ptr<const nn::Tree>> encodings_;
  ShardedLru<double> scores_;
  // Obs mirror (pointer-stable registry handles, recording is branch-gated).
  obs::Counter* c_enc_hits_;
  obs::Counter* c_enc_misses_;
  obs::Counter* c_enc_inserts_;
  obs::Counter* c_enc_evictions_;
  obs::Counter* c_score_hits_;
  obs::Counter* c_score_misses_;
  obs::Counter* c_score_inserts_;
  obs::Counter* c_score_evictions_;
  obs::Gauge* g_enc_size_;
  obs::Gauge* g_score_size_;
};

}  // namespace loam::cache

#endif  // LOAM_CACHE_CACHE_H_
