#include "cache/cache.h"

#include <cstring>

#include "obs/obs.h"

namespace loam::cache {

std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
  // splitmix-finalize a keyed mix of both words; the 0x9e37... rotation keeps
  // combine order-sensitive.
  return mix64(a ^ (b * 0x9e3779b97f4a7c15ull) ^ 0x7f4a7c15ull);
}

std::uint64_t fingerprint(std::span<const double> values) {
  std::uint64_t h = 0x1000193ull + values.size();
  for (double v : values) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    h = combine(h, bits);
  }
  return h;
}

namespace {

// One salt per table keeps an encoding key from ever colliding with a score
// key built over the same (plan, env) pair.
constexpr std::uint64_t kEncodingSalt = 0xe2c0d1f6ull;
constexpr std::uint64_t kScoreSalt = 0x5c0e5a17ull;

}  // namespace

std::uint64_t InferenceCache::encoding_key(std::uint64_t plan_key,
                                           std::uint64_t env_fp) {
  return combine(combine(kEncodingSalt, plan_key), env_fp);
}

std::uint64_t InferenceCache::score_key(std::uint64_t plan_key,
                                        std::uint64_t env_fp,
                                        std::int64_t model_epoch) {
  return combine(combine(combine(kScoreSalt, plan_key), env_fp),
                 static_cast<std::uint64_t>(model_epoch));
}

InferenceCache::InferenceCache(const std::string& name, CacheConfig config)
    : config_(config),
      encodings_(config.encoding_capacity, config.shards),
      scores_(config.score_capacity, config.shards) {
  obs::Registry& reg = obs::Registry::instance();
  const std::string p = "loam.cache." + name;
  c_enc_hits_ = reg.counter(p + ".enc.hits");
  c_enc_misses_ = reg.counter(p + ".enc.misses");
  c_enc_inserts_ = reg.counter(p + ".enc.inserts");
  c_enc_evictions_ = reg.counter(p + ".enc.evictions");
  c_score_hits_ = reg.counter(p + ".score.hits");
  c_score_misses_ = reg.counter(p + ".score.misses");
  c_score_inserts_ = reg.counter(p + ".score.inserts");
  c_score_evictions_ = reg.counter(p + ".score.evictions");
  g_enc_size_ = reg.gauge(p + ".enc.size");
  g_score_size_ = reg.gauge(p + ".score.size");
}

std::shared_ptr<const nn::Tree> InferenceCache::get_encoding(std::uint64_t key) {
  std::optional<std::shared_ptr<const nn::Tree>> hit = encodings_.get(key);
  (hit ? c_enc_hits_ : c_enc_misses_)->add();
  return hit ? std::move(*hit) : nullptr;
}

void InferenceCache::put_encoding(std::uint64_t key,
                                  std::shared_ptr<const nn::Tree> tree) {
  if (tree == nullptr) return;
  using Lru = ShardedLru<std::shared_ptr<const nn::Tree>>;
  const Lru::PutOutcome out = encodings_.put(key, std::move(tree));
  if (out == Lru::PutOutcome::kInserted ||
      out == Lru::PutOutcome::kInsertedEvicting) {
    c_enc_inserts_->add();
  }
  if (out == Lru::PutOutcome::kInsertedEvicting) c_enc_evictions_->add();
  if (obs::metrics_on()) {
    g_enc_size_->set(static_cast<double>(encodings_.size()));
  }
}

std::optional<double> InferenceCache::get_score(std::uint64_t key) {
  std::optional<double> hit = scores_.get(key);
  (hit ? c_score_hits_ : c_score_misses_)->add();
  return hit;
}

void InferenceCache::put_score(std::uint64_t key, double score) {
  using Lru = ShardedLru<double>;
  const Lru::PutOutcome out = scores_.put(key, score);
  if (out == Lru::PutOutcome::kInserted ||
      out == Lru::PutOutcome::kInsertedEvicting) {
    c_score_inserts_->add();
  }
  if (out == Lru::PutOutcome::kInsertedEvicting) c_score_evictions_->add();
  if (obs::metrics_on()) {
    g_score_size_->set(static_cast<double>(scores_.size()));
  }
}

void InferenceCache::clear() {
  encodings_.clear();
  scores_.clear();
}

}  // namespace loam::cache
