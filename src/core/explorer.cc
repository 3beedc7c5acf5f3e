#include "core/explorer.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "obs/obs.h"

namespace loam::core {

using warehouse::Flag;
using warehouse::FlagSet;
using warehouse::Plan;
using warehouse::PlannerKnobs;
using warehouse::Query;

namespace {

// The knobs that cannot change one query's plan.
struct InertKnobs {
  bool partial_aggregation = false;  // no group-by aggregation to split
  bool spool_reuse = false;          // no two tables share a storage id
  bool force_reorder = false;        // reordering is on regardless
  bool card_scale = false;           // no join subquery has >= 3 inputs

  // `knobs` with every inert setting cleared: trials with equal canonical
  // knobs produce byte-identical plans.
  PlannerKnobs canonical(PlannerKnobs knobs) const {
    if (partial_aggregation) knobs.flags.set(Flag::kPartialAggregation, false);
    if (spool_reuse) knobs.flags.set(Flag::kSpoolReuse, false);
    if (force_reorder) knobs.force_reorder = false;
    if (card_scale) knobs.card_scale = 1.0;
    return knobs;
  }
};

// Each rule mirrors the one place the native optimizer reads the knob:
// partial aggregation needs a non-empty group-by, a spool read needs a
// second scan of one storage id, force_reorder only matters while
// statistics are missing, and card_scale only scales subsets of >= 3 tables.
InertKnobs inert_knobs(const warehouse::NativeOptimizer& optimizer,
                      const Query& query) {
  InertKnobs inert;
  inert.partial_aggregation =
      !query.aggregation.has_value() || query.aggregation->group_by.empty();
  std::set<int> storage;
  for (const int t : query.tables) {
    const int alias_of = optimizer.catalog().table(t).alias_of;
    storage.insert(alias_of >= 0 ? alias_of : t);
  }
  inert.spool_reuse = storage.size() == query.tables.size();
  inert.force_reorder = optimizer.reordering_enabled(query);
  inert.card_scale = query.tables.size() < 3;
  return inert;
}

}  // namespace

PlanExplorer::PlanExplorer(const warehouse::NativeOptimizer* optimizer, Config config)
    : optimizer_(optimizer), config_(config) {
  num_threads_ = config.num_threads > 0
                     ? config.num_threads
                     : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // The pool holds the workers beyond the exploring thread, which always
  // participates in parallel_for; num_threads == 1 keeps everything on the
  // caller with no pool at all (the escape hatch back to legacy behavior).
  if (num_threads_ > 1) {
    pool_ = std::make_unique<util::ThreadPool>(num_threads_ - 1);
  }
}

CandidateGeneration PlanExplorer::explore(const Query& query) const {
  // Handles are registered once; recording below is branch-gated relaxed
  // atomics and never feeds back into plan selection.
  static obs::Counter* const c_explores =
      obs::Registry::instance().counter("loam.explorer.explores");
  static obs::Counter* const c_trials =
      obs::Registry::instance().counter("loam.explorer.trials");
  static obs::Counter* const c_built =
      obs::Registry::instance().counter("loam.explorer.trials_built");
  static obs::Counter* const c_kept =
      obs::Registry::instance().counter("loam.explorer.candidates_kept");
  static obs::Counter* const c_pruned =
      obs::Registry::instance().counter("loam.explorer.candidates_pruned");
  static obs::Histogram* const h_seconds = obs::Registry::instance().histogram(
      "loam.explorer.explore_seconds",
      obs::Histogram::exponential_bounds(1e-5, 4.0, 10));
  obs::Span span(obs::Cat::kExplorer, "explore");
  obs::ScopedTimer timer(h_seconds);

  const auto start = std::chrono::steady_clock::now();

  // Expert-curated trial list (Section 3: the six flags were "selected by
  // MaxCompute's domain experts because they are more likely to yield diverse
  // candidate plans, while remaining safe enough to avoid drastically bad
  // plans"). Toggles whose only possible effect is pessimization — disabling
  // filter pushdown, forcing sort-merge pipelines onto unsorted fact inputs —
  // are deliberately absent.
  std::vector<PlannerKnobs> trials;
  const PlannerKnobs def;  // shipping defaults
  trials.push_back(def);

  {
    // Shuffle-related: fall back from broadcast to repartitioning.
    PlannerKnobs k = def;
    k.flags.set(Flag::kEnableBroadcastJoin, false);
    trials.push_back(k);
  }
  {
    // Data-flow: partial (pre-shuffle) aggregation.
    PlannerKnobs k = def;
    k.flags.set(Flag::kPartialAggregation);
    trials.push_back(k);
  }
  {
    // Spool: share repeated scans.
    PlannerKnobs k = def;
    k.flags.set(Flag::kSpoolReuse);
    trials.push_back(k);
  }
  if (config_.expert_combos) {
    PlannerKnobs k = def;
    k.flags.set(Flag::kPartialAggregation).set(Flag::kSpoolReuse);
    trials.push_back(k);
  }
  if (config_.risky_trials) {
    // The trials the expert pass rejected: kept behind a switch for the
    // explorer ablations.
    PlannerKnobs merge = def;
    merge.flags.set(Flag::kPreferHashJoin, false).set(Flag::kMergeJoinForSorted);
    trials.push_back(merge);
    PlannerKnobs late = def;
    late.flags.set(Flag::kAggressiveFilterPushdown, false);
    trials.push_back(late);
    if (query.tables.size() >= 3) {
      for (double s : {0.05, 20.0}) {
        PlannerKnobs k = def;
        k.card_scale = s;
        k.force_reorder = true;
        trials.push_back(k);
      }
    }
  }
  // Join-order steering: reordering on coarse metadata estimates — the only
  // way to repair a bad syntactic order when statistics are missing.
  if (query.tables.size() >= 2) {
    PlannerKnobs k = def;
    k.force_reorder = true;
    trials.push_back(k);
    if (config_.expert_combos) {
      PlannerKnobs kp = k;
      kp.flags.set(Flag::kPartialAggregation);
      trials.push_back(kp);
    }
  }
  // Lero-style scaled cardinalities for queries with >= 3 inputs. Scaling
  // only perturbs the join-order search, so these trials force reordering.
  if (query.tables.size() >= 3) {
    for (double s : config_.card_scales) {
      PlannerKnobs k = def;
      k.card_scale = s;
      k.force_reorder = true;
      trials.push_back(k);
      if (config_.expert_combos) {
        PlannerKnobs kb = k;
        kb.flags.set(Flag::kPartialAggregation);
        trials.push_back(kb);
      }
    }
  }

  // Plan each query once: trials whose knobs differ only in settings that
  // cannot change this query's plan share one canonical class, and only the
  // first trial of each class is built. A skipped trial's plan is
  // byte-identical to its representative's, so the signature dedup below
  // would have dropped it anyway.
  std::vector<std::size_t> rep(trials.size());   // trial -> representative
  std::vector<std::size_t> built;                // representatives, in order
  std::vector<PlannerKnobs> built_knobs;
  {
    std::vector<PlannerKnobs> canon;
    const InertKnobs inert = inert_knobs(*optimizer_, query);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const PlannerKnobs c = inert.canonical(trials[i]);
      const auto it = std::find(canon.begin(), canon.end(), c);
      if (it != canon.end()) {
        rep[i] = built[static_cast<std::size_t>(it - canon.begin())];
        continue;
      }
      rep[i] = i;
      canon.push_back(c);
      built.push_back(i);
      built_knobs.push_back(trials[i]);
    }
  }

  // The shared estimator and the per-class join trees are computed up
  // front; each built trial then only runs physical construction and
  // annotation — concurrently when the pool exists. Builds read only the
  // (const) planner and write their own result slot; a build that ever
  // needs randomness must derive it as Rng(seed).fork(i), never from a
  // shared stream. Rough costs and signatures come out on the COMMON
  // estimate face (card_scale = 1) because annotate() never reads the
  // scale, so trials that only deluded their own search face do not get
  // to flatter themselves, and structurally identical plans found under
  // different card scales dedup.
  const warehouse::NativeOptimizer::TrialPlanner planner(*optimizer_, query,
                                                         built_knobs);
  struct TrialResult {
    Plan plan;
    std::uint64_t sig = 0;
    double rough = 0.0;
  };
  std::vector<TrialResult> results(built.size());
  auto run_trial = [&](std::size_t k) {
    // Per-flag-set timing: the trial index deterministically identifies the
    // knob setting within this query's trial list.
    obs::Span trial_span(obs::Cat::kExplorer, "optimize_trial",
                         static_cast<std::int64_t>(built[k]));
    TrialResult& r = results[k];
    r.plan = planner.build(k);
    r.sig = r.plan.signature();
    r.rough = optimizer_->rough_cost(r.plan);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(built.size(), run_trial);
  } else {
    for (std::size_t k = 0; k < built.size(); ++k) run_trial(k);
  }

  // Serial merge in trial order: dedup by plan signature exactly as the
  // legacy loop did, so the candidate set, ordering and costs do not depend
  // on the thread count.
  struct Candidate {
    Plan plan;
    PlannerKnobs knobs;
    std::uint64_t sig = 0;
    double rough = 0.0;
    bool is_default = false;
  };
  std::vector<Candidate> candidates;
  std::set<std::uint64_t> seen;
  double default_rough = 0.0;
  for (std::size_t i = 0, k = 0; i < trials.size(); ++i) {
    if (rep[i] != i) continue;  // its representative came first
    TrialResult& r = results[k++];
    if (!seen.insert(r.sig).second) continue;
    Candidate c;
    c.rough = r.rough;
    if (i == 0) default_rough = c.rough;
    c.plan = std::move(r.plan);
    c.knobs = trials[i];
    c.sig = r.sig;
    c.is_default = (i == 0);
    candidates.push_back(std::move(c));
  }
  // Sanity pruning against the default plan's rough cost.
  if (config_.sanity_factor > 0.0 && default_rough > 0.0) {
    std::erase_if(candidates, [&](const Candidate& c) {
      return !c.is_default && c.rough > config_.sanity_factor * default_rough;
    });
  }

  // Keep the top-k by rough cost; the default plan is always retained
  // (Section 7.1: candidate sets include the default plan).
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.is_default != b.is_default) return a.is_default;
                     return a.rough < b.rough;
                   });
  if (static_cast<int>(candidates.size()) > config_.top_k) {
    candidates.resize(static_cast<std::size_t>(config_.top_k));
  }

  CandidateGeneration out;
  out.trials = static_cast<int>(trials.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].is_default) out.default_index = static_cast<int>(i);
    out.plans.push_back(std::move(candidates[i].plan));
    out.knobs.push_back(candidates[i].knobs);
    out.signatures.push_back(candidates[i].sig);
    out.rough_costs.push_back(candidates[i].rough);
  }
  out.generation_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  c_explores->add();
  c_trials->add(trials.size());
  c_built->add(built.size());
  c_kept->add(out.plans.size());
  c_pruned->add(trials.size() - out.plans.size());
  return out;
}

}  // namespace loam::core
