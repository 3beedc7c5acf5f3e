#include "core/scorer.h"

#include <memory>
#include <utility>

namespace loam::core {

using cache::InferenceCache;

int argmin(std::span<const double> scores) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] < scores[best]) best = i;
  }
  return static_cast<int>(best);
}

namespace {

std::uint64_t env_fingerprint(const std::optional<warehouse::EnvFeatures>& env) {
  if (!env.has_value()) return 0x9e1debull;
  const double vals[4] = {env->cpu_idle, env->io_wait, env->load5_norm,
                          env->mem_usage};
  return cache::fingerprint(vals);
}

}  // namespace

CandidateScorer::CandidateScorer(const PlanEncoder* encoder,
                                 std::optional<warehouse::EnvFeatures> env,
                                 cache::InferenceCache* cache)
    : encoder_(encoder),
      env_(env),
      env_fp_(env_fingerprint(env)),
      cache_(cache) {}

void CandidateScorer::score(const CostModel& model, std::int64_t model_epoch,
                            std::span<const CandidateGeneration* const> generations,
                            std::span<std::vector<double>* const> scores) const {
  struct Miss {
    double* out;
    std::uint64_t score_key;
    std::shared_ptr<const nn::Tree> tree;  // keeps a cached encoding alive
  };
  std::size_t total = 0;
  for (const CandidateGeneration* gen : generations) total += gen->plans.size();
  std::vector<Miss> misses;
  misses.reserve(total);
  for (std::size_t g = 0; g < generations.size(); ++g) {
    const CandidateGeneration& gen = *generations[g];
    std::vector<double>& out = *scores[g];
    out.assign(gen.plans.size(), 0.0);
    for (std::size_t c = 0; c < gen.plans.size(); ++c) {
      const std::uint64_t sig = gen.signatures.at(c);
      const std::uint64_t skey =
          InferenceCache::score_key(sig, env_fp_, model_epoch);
      if (cache_ != nullptr) {
        if (const std::optional<double> hit = cache_->get_score(skey)) {
          out[c] = *hit;
          continue;
        }
      }
      const std::uint64_t ekey = InferenceCache::encoding_key(sig, env_fp_);
      std::shared_ptr<const nn::Tree> tree =
          cache_ != nullptr ? cache_->get_encoding(ekey) : nullptr;
      if (tree == nullptr) {
        tree = std::make_shared<const nn::Tree>(
            encoder_->encode(gen.plans[c], nullptr, env_));
        if (cache_ != nullptr) cache_->put_encoding(ekey, tree);
      }
      misses.push_back(Miss{&out[c], skey, std::move(tree)});
    }
  }
  if (misses.empty()) return;
  // predict_batch_ptrs is bit-identical per row whatever the batch holds, so
  // scoring only the misses, together, changes no value.
  std::vector<const nn::Tree*> trees;
  trees.reserve(misses.size());
  for (const Miss& m : misses) trees.push_back(m.tree.get());
  const std::vector<double> fresh = model.predict_batch_ptrs(trees);
  for (std::size_t j = 0; j < misses.size(); ++j) {
    *misses[j].out = fresh[j];
    if (cache_ != nullptr) cache_->put_score(misses[j].score_key, fresh[j]);
  }
}

int CandidateScorer::select(const CostModel& model,
                            const CandidateGeneration& generation,
                            std::int64_t model_epoch,
                            std::vector<double>* scores) const {
  std::vector<double> local;
  std::vector<double>* const out = scores != nullptr ? scores : &local;
  const CandidateGeneration* const gens[] = {&generation};
  std::vector<double>* const outs[] = {out};
  score(model, model_epoch, gens, outs);
  return argmin(*out);
}

}  // namespace loam::core
