// Workload definitions and their seeded inputs. Why each workload exists is
// recorded in perfbench/README.md; the short form sits beside each entry.
#include <cmath>
#include <functional>

#include "perfbench.h"

namespace perfbench {

namespace {

std::vector<WorkloadSpec> make_workloads() {
  const std::vector<warehouse::ProjectArchetype> eval =
      warehouse::evaluation_archetypes();
  std::vector<WorkloadSpec> v;

  // Recurring templates dominate production (paper Fig. 15): a few hundred
  // instantiated queries, Zipf-drawn, so the score cache absorbs encode and
  // infer and exploration is nearly all of the service time.
  WorkloadSpec hot;
  hot.name = "recurring_hot";
  hot.archetype_label = "evaluation_archetypes()[1] (P2)";
  hot.archetype = eval[1];
  hot.pool_size = 300;
  hot.pool_skew = 1.0;
  hot.pool_seed = 0x9001;
  hot.rate_rps = 1000.0;
  v.push_back(hot);

  // Many templates, flat template skew, wide joins, a fresh instantiation
  // per request: the caches mostly miss, so encode, infer and the nn kernels
  // carry a large share of the service time.
  WorkloadSpec cold;
  cold.name = "diverse_cold";
  cold.archetype_label =
      "evaluation_archetypes()[2] (P3) with 1000 templates, join_tables_mean 5";
  cold.archetype = eval[2];
  cold.archetype.name = "project3_diverse";
  cold.archetype.n_templates = 1000;
  cold.archetype.template_zipf_skew = 0.0;
  cold.archetype.join_tables_mean = 5.0;
  cold.template_skew = 0.0;
  cold.rate_rps = 500.0;
  v.push_back(cold);

  // Writes beside reads on the project whose Fig. 6 result regressed:
  // optimize, execute, record_feedback, and a synchronous retrain every
  // Settings::retrain_every records. Training, gate flighting, journal
  // appends, registry publish and swap dominate.
  // The loop is three passes over the project's 200 recurring queries, each
  // pass (a day) in a seed-shuffled order: every retrain sees the same
  // multiset of executions whatever the seed, so retrain cost and steering
  // quality do not swing with which queries a seed happened to draw.
  WorkloadSpec fb;
  fb.name = "feedback_retrain";
  fb.archetype_label = "evaluation_archetypes()[4] (P5)";
  fb.archetype = eval[4];
  fb.feedback_loop = true;
  fb.template_skew = eval[4].template_zipf_skew;
  fb.pool_size = 200;
  fb.pool_skew = 0.0;  // the pool itself carries the project's template skew
  fb.pool_seed = 0x9005;
  v.push_back(fb);

  // The only mix that exercises admission, pacing, batching and the shed
  // path: P2 with pacing on, bursty arrivals at a fixed mean rate above the
  // model path's capacity. The rate is a constant, never calibrated per run.
  WorkloadSpec over;
  over.name = "overload_paced";
  over.archetype_label = "evaluation_archetypes()[1] (P2), pacing on";
  over.archetype = eval[1];
  over.pacing = true;
  over.pool_size = 300;
  over.pool_skew = 1.0;
  over.pool_seed = 0x9001;  // the same recurring pool as recurring_hot
  over.rate_rps = 9000.0;
  over.burst_factor = 4.0;
  over.require_model = false;
  v.push_back(over);
  return v;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> v = make_workloads();
  return v;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

warehouse::Query Inputs::query(std::uint32_t index) const {
  const RequestSpec& r = table[index];
  Rng params(r.param_seed);
  // instantiate() draws only from the Rng it is handed; the generator's own
  // seed is never consulted.
  return warehouse::WorkloadGenerator(0).instantiate(
      *project, project->templates[r.template_index], day, params);
}

Inputs make_inputs(const WorkloadSpec& spec, const warehouse::Project& project,
                   const Settings& settings, std::uint64_t seed,
                   double open_seconds, double total_seconds) {
  Rng root(seed);
  Rng picks = root.fork(1);
  Rng arrivals = root.fork(2);
  const auto n_templates = static_cast<std::int64_t>(project.templates.size());

  Inputs in;
  in.project = &project;
  in.day = settings.history_days;  // the first day after the history
  const auto instantiate = [&](Rng& pick) -> std::uint32_t {
    RequestSpec r;
    r.template_index =
        static_cast<std::uint32_t>(pick.zipf(n_templates, spec.template_skew) - 1);
    r.param_seed = pick.engine()();
    in.table.push_back(r);
    return static_cast<std::uint32_t>(in.table.size() - 1);
  };
  const auto fresh = [&] { return instantiate(picks); };
  std::vector<std::uint32_t> rank_to_query;
  if (spec.pool_size > 0) {
    Rng pool_rng(spec.pool_seed);
    for (int i = 0; i < spec.pool_size; ++i) {
      rank_to_query.push_back(instantiate(pool_rng));
    }
    pool_rng.shuffle(rank_to_query);
  }
  const std::function<std::uint32_t()> draw = [&]() -> std::uint32_t {
    if (rank_to_query.empty()) return fresh();
    const std::int64_t r =
        picks.zipf(static_cast<std::int64_t>(rank_to_query.size()),
                   spec.pool_skew) - 1;
    return rank_to_query[static_cast<std::size_t>(r)];
  };

  for (int i = 0; i < settings.warm_requests; ++i) in.warm.push_back(draw());

  if (spec.feedback_loop && rank_to_query.empty()) {
    for (int i = 0; i < settings.feedback_cycles; ++i) in.open.push_back(draw());
  } else if (spec.feedback_loop) {
    while (static_cast<int>(in.open.size()) < settings.feedback_cycles) {
      std::vector<std::uint32_t> pass = rank_to_query;
      picks.shuffle(pass);
      for (std::uint32_t q : pass) {
        if (static_cast<int>(in.open.size()) < settings.feedback_cycles) in.open.push_back(q);
      }
    }
  } else {
    const double mean = spec.rate_rps;
    const double off = 2.0 * mean / (spec.burst_factor + 1.0);
    const double on = spec.burst_factor * off;
    const double half_period = 0.5e-3 * spec.burst_period_ms;
    double t = 0.0;
    for (;;) {
      const bool bursting =
          spec.burst_factor > 1.0 &&
          static_cast<std::int64_t>(std::floor(t / half_period)) % 2 == 0;
      const double rate = spec.burst_factor > 1.0 ? (bursting ? on : off) : mean;
      t += -std::log(1.0 - arrivals.uniform()) / rate;
      if (t >= open_seconds) break;
      in.open.push_back(draw());
      in.open_due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    }
  }

  // Far more than the closed loop can send in the whole run at the measured
  // capacities; the loop stops early rather than repeat a request.
  const auto n_closed = static_cast<std::size_t>(40000.0 * total_seconds);
  for (std::size_t i = 0; i < n_closed; ++i) in.closed.push_back(draw());
  return in;
}

}  // namespace perfbench
