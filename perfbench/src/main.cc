// loam_perfbench: one benchmark run of one workload against a live
// OptimizerService. Usage:
//
//   loam_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>] [--force-fallback]
//
// Prints a report line (host fingerprint, per-phase bookkeeping,
// diagnostics) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. --force-fallback skips the
// bootstrap model so every decision falls back to the native optimizer; the
// model_share check must then fail (the benchmark's own negative test).
// Exit code 0 only when every check passed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>

#include "nn/simd.h"
#include "obs/json.h"
#include "perfbench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  bool force_fallback = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--force-fallback") {
      a->force_fallback = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a->workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a->seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a->seconds = std::stoi(v);
        have_seconds = true;
      } else if (flag == "--trace") {
        a->trace = std::stoi(v);
        have_trace = true;
      } else if (flag == "--work-dir") {
        a->work_dir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace &&
         a->seconds >= 1 && a->seconds <= 60 && (a->trace == 0 || a->trace == 1);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The median, over consecutive equal chunks of `v` (in arrival order), of
// each chunk's q-quantile: a host stall that hits one stretch of a run moves
// one chunk, not the result. 4 to 16 chunks of at least ~500 samples.
double chunked_quantile(const std::vector<double>& v, double q) {
  const std::size_t k = std::clamp<std::size_t>(v.size() / 500, 4, 16);
  if (v.size() < k) return quantile(v, q);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < k; ++c) {
    per_chunk.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(c * v.size() / k),
                            v.begin() + static_cast<std::ptrdiff_t>((c + 1) * v.size() / k)),
        q));
  }
  return median(per_chunk);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Bytes the process holds allocated on the heap now, over every allocator
// arena. Unlike the resident set it does not depend on how the arenas
// fragmented, nor on the high-water mark of the decisions that were in flight
// (under overload that follows the host's speed from run to run).
double heap_mb() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
}

// Aggregate CPU ticks from /proc/stat: {busy, steal}. Steal is time the
// hypervisor ran something else on our virtual CPUs; a run with a large
// share of it measured the host, not the program.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >> steal;
  return {user + nice + sys + irq + softirq, steal};
}

struct CacheTotals {
  cache::CacheStats score, encoding;
};

CacheTotals cache_totals(const serve::OptimizerService& service) {
  CacheTotals t;
  for (int k = 0; k < service.num_shards(); ++k) {
    const cache::InferenceCache& c = service.shard(k).inference_cache();
    const cache::CacheStats s = c.score_stats(), e = c.encoding_stats();
    t.score.hits += s.hits;
    t.score.misses += s.misses;
    t.encoding.hits += e.hits;
    t.encoding.misses += e.misses;
  }
  return t;
}

double hit_share(const cache::CacheStats& before, const cache::CacheStats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  return ratio(hits, hits + misses);
}

struct Metric {
  std::string name, unit;
  double value;
};

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Settings settings;
  const double total = static_cast<double>(args.seconds);
  // The primary phase (the open loop, or the fixed-length feedback loop)
  // carries the latency and cost metrics; the closed loop measures
  // saturation throughput. Both run in Settings::rounds slices, alternating,
  // each on its own stack, so the closed loop's requests never warm the
  // caches the primary phase is measured against.
  const double open_s = 0.5 * total;
  const double closed_s = total - open_s;
  const int rounds = settings.rounds;

  // Inputs first, from the seed alone; nothing below draws another input.
  const warehouse::Project project =
      warehouse::WorkloadGenerator(0).make_project(spec->archetype);
  const Inputs inputs =
      make_inputs(*spec, project, settings, args.seed, open_s, total);

  const std::string state_root =
      args.work_dir + "/state-" + std::to_string(static_cast<long>(getpid()));
  std::vector<SetupTiming> setups(1);
  std::unique_ptr<Stack> stack = set_up(*spec, settings, inputs, state_root + "/setup0",
                                        args.force_fallback, &setups[0]);
  serve::OptimizerService& service = *stack->service;
  std::unique_ptr<Stack> closed_stack;  // the first round's extra set-up

  // ---- timed phases -------------------------------------------------------
  Phase primary, closed;
  primary.name = spec->feedback_loop ? "feedback_loop" : "open_loop";
  closed.name = "closed_loop";
  std::size_t next_closed = 0;
  // Executes the feedback loop's chosen plans; on serve mixes, the plans of
  // the kept decisions whose feedback is timed off the clock.
  warehouse::FlightingEnv production(stack->runtime->config().cluster,
                                     stack->runtime->config().executor,
                                     settings.flighting_seed ^ 0x9e0dull);
  std::vector<warehouse::ExecutionResult> executions;
  std::vector<double> feedback_s;
  CacheTotals primary_cache;
  std::vector<serve::PacingSnapshot> pacing;
  primary.served.reserve(inputs.open.size());
  const std::pair<double, double> ticks_before = cpu_ticks();
  for (int r = 0; r < rounds; ++r) {
    const CacheTotals c0 = cache_totals(service);
    if (spec->feedback_loop) {
      run_feedback_loop(*stack, inputs, settings, r * settings.feedback_cycles / rounds,
                        (r + 1) * settings.feedback_cycles / rounds,
                        std::max(60.0, 3.0 * total) / rounds, production, &primary);
    } else {
      const auto slice_ns = [&](int k) {
        return static_cast<std::int64_t>(1e9 * open_s * k / rounds);
      };
      const auto at = [&](int k) {
        return static_cast<std::size_t>(
            std::lower_bound(inputs.open_due_ns.begin(), inputs.open_due_ns.end(),
                             slice_ns(k)) -
            inputs.open_due_ns.begin());
      };
      run_open_loop(*stack, inputs, at(r), at(r + 1), slice_ns(r),
                    static_cast<std::size_t>(settings.feedback_samples), &primary);
    }
    const CacheTotals c1 = cache_totals(service);
    primary_cache.score.hits += c1.score.hits - c0.score.hits;
    primary_cache.score.misses += c1.score.misses - c0.score.misses;
    primary_cache.encoding.hits += c1.encoding.hits - c0.encoding.hits;
    primary_cache.encoding.misses += c1.encoding.misses - c0.encoding.misses;
    if (r + 1 == rounds) {
      for (int k = 0; k < service.num_shards(); ++k) {
        pacing.push_back(service.pacing_snapshot(k));
      }
    }
    // Serve mixes time the feedback path off the clock. Traced runs skip it:
    // it reports no layer metric, and the records it appends would inflate
    // the journal the traced retrain replays.
    if (!spec->feedback_loop && args.trace == 0) {
      for (std::size_t i = executions.size(); i < primary.kept.size(); ++i) {
        const serve::ServeDecision& d = primary.kept[i];
        executions.push_back(production.replay_once(
            d.generation.plans[static_cast<std::size_t>(d.chosen)]));
      }
      for (int round = 0; round < settings.feedback_rounds; ++round) {
        for (std::size_t i = 0; i < primary.kept.size(); ++i) {
          const std::int64_t t0 = now_ns();
          service.record_feedback(primary.kept[i], executions[i]);
          feedback_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
        }
      }
    }
    if (r + 1 < rounds) {
      // Another set-up, timed beside the live stack. The first serves the
      // closed loop; the others are torn down again.
      setups.emplace_back();
      std::unique_ptr<Stack> extra =
          set_up(*spec, settings, inputs, state_root + "/setup" + std::to_string(r + 1),
                 args.force_fallback, &setups.back());
      if (!closed_stack) closed_stack = std::move(extra);
    }
    run_closed_loop(*closed_stack, inputs, settings.window, closed_s / rounds,
                    &next_closed, &closed);
  }
  // The closed loop's stack goes before the footprint is taken. Its checks
  // need only its model versions, loaded here; the rest of a stack (runtime,
  // encoder normalizers, environment context) is built identically from the
  // same seeds, so the live stack stands in for it.
  ModelCache closed_models(*closed_stack);
  for (const Served& s : closed.served) {
    if (!s.failed && s.model_version >= 0) closed_models.get(s.model_version);
  }
  closed_stack.reset();
  // Before the off-clock work, whose own threads and replays are not the
  // program's footprint; less the benchmark's own request records (the
  // closed loop's grow with the host's speed, in steps of a doubling vector).
  const double live_heap_mb =
      heap_mb() - static_cast<double>((primary.served.capacity() + closed.served.capacity()) *
                                      sizeof(Served)) /
                      (1024.0 * 1024.0);
  const double peak_mb = peak_rss_mb();
  const std::pair<double, double> ticks_after = cpu_ticks();
  const double steal = ticks_after.second - ticks_before.second;
  const double steal_share =
      ratio(steal, ticks_after.first - ticks_before.first + steal);
  if (steal_share > 0.05) {
    std::fprintf(stderr,
                 "warning: the hypervisor took %.1f%% of this run's CPU time "
                 "(steal); its timings reflect host contention\n",
                 100.0 * steal_share);
  }

  // ---- off the clock: cost, checks ----------------------------------------
  const CostReplay cost = replay_costs(
      *stack, inputs, primary, static_cast<std::size_t>(settings.cost_decisions),
      settings.check_threads, settings.flighting_seed);
  feedback_s.insert(feedback_s.end(), primary.feedback_s.begin(), primary.feedback_s.end());
  std::vector<double> retrain_s = primary.retrain_s;
  if (!spec->feedback_loop) {
    for (const SetupTiming& t : setups) retrain_s.push_back(t.retrain_s);
  }

  const std::vector<const Phase*> phases = {&primary, &closed};
  ModelCache models(*stack);
  std::string check_error, closed_error;
  std::uint64_t mismatches =
      check_decisions(*stack, inputs, {&primary}, models, settings.check_threads,
                      &check_error) +
      check_decisions(*stack, inputs, {&closed}, closed_models, settings.check_threads,
                      &closed_error);
  if (check_error.empty()) check_error = closed_error;

  const auto model_served = [](const Served& s) {
    return !s.failed && !s.shed && s.model_version >= 0;
  };
  std::uint64_t attempted = 0, failed = 0, not_model = 0;
  for (const Phase* p : phases) {
    for (const Served& s : p->served) {
      ++attempted;
      failed += s.failed ? 1 : 0;
      not_model += model_served(s) ? 0 : 1;
    }
  }
  // The closed loop saturates the service on purpose (under pacing it sheds
  // most of its window), so the share is taken over the primary phase.
  const double model_share =
      ratio(static_cast<double>(std::count_if(primary.served.begin(),
                                              primary.served.end(), model_served)),
            static_cast<double>(primary.served.size()));
  std::vector<std::string> problems;
  if (failed > 0) problems.push_back(std::to_string(failed) + " requests failed");
  if (mismatches > 0) {
    problems.push_back(std::to_string(mismatches) +
                       " decisions differ from the replay (" + check_error + ")");
  }
  if (spec->require_model && not_model > 0) {
    problems.push_back("model_share " + std::to_string(model_share) + ": " +
                       std::to_string(not_model) +
                       " decisions were not served by a registry model");
  }
  if (cost.unmatched > 0) {
    problems.push_back(std::to_string(cost.unmatched) +
                       " chosen plans are not among the replayed candidates");
  }
  if (spec->feedback_loop &&
      primary.served.size() < static_cast<std::size_t>(settings.feedback_cycles)) {
    problems.push_back("feedback loop stopped after " +
                       std::to_string(primary.served.size()) + " of " +
                       std::to_string(settings.feedback_cycles) + " cycles");
  }

  std::vector<double> latency, late, queue, service_s, batch;
  std::uint64_t shed = 0;
  for (const Served& s : primary.served) {
    if (s.failed) continue;
    latency.push_back(s.latency_s);
    late.push_back(s.late_s);
    shed += s.shed ? 1 : 0;
    if (s.shed) continue;
    queue.push_back(s.queue_s);
    service_s.push_back(s.total_s - s.queue_s);
    batch.push_back(static_cast<double>(s.batch_size));
  }
  std::vector<double> closed_batch;
  std::uint64_t closed_ok = 0;
  for (const Served& s : closed.served) {
    closed_ok += s.failed ? 0 : 1;
    if (!s.failed && !s.shed) closed_batch.push_back(static_cast<double>(s.batch_size));
  }
  const double gen_late_p90_ms = 1e3 * quantile(late, 0.9);
  const bool gen_behind = !spec->feedback_loop && gen_late_p90_ms > 1.0;
  if (gen_behind) {
    std::fprintf(stderr,
                 "warning: the generator fell behind its schedule "
                 "(lateness p90 %.3f ms)\n",
                 gen_late_p90_ms);
  }

  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;
  std::vector<double> setup_s, history_s;
  for (const SetupTiming& t : setups) {
    setup_s.push_back(t.setup_s);
    history_s.push_back(t.history_s);
  }
  SpanLog spans;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"p50_ms", "ms", 1e3 * chunked_quantile(latency, 0.5)},
        {"decisions_per_cpu_s", "1/s", ratio(static_cast<double>(closed.completed), closed.service_cpu_s)},
        {"cost_ratio", "ratio", std::exp(ratio(cost.log_ratio_sum, static_cast<double>(cost.decisions)))},
        {"model_share", "share", model_share},
        {"retrain_s", "s", median(retrain_s)},
        {"feedback_p50_us", "us", 1e6 * chunked_quantile(feedback_s, 0.5)},
        {"feedback_p90_us", "us", 1e6 * chunked_quantile(feedback_s, 0.9)},
        {"heap_mb", "MB", live_heap_mb},
    };
  } else {
    // Untraced, traced, untraced again (each from a fresh inference cache):
    // the overhead compares the traced pass with both untraced passes
    // around it, so warm-up and drift do not read as tracing cost.
    SpanLog off;
    ReplayStats plain = replay_phase(*stack, inputs, primary, models, off);
    spans.enabled = true;
    spans.spans.reserve(8 * primary.served.size() + 64);
    const ReplayStats tr = replay_phase(*stack, inputs, primary, models, spans);
    const ReplayStats plain2 = replay_phase(*stack, inputs, primary, models, off);
    plain.request_s.insert(plain.request_s.end(), plain2.request_s.begin(),
                           plain2.request_s.end());
    const RetrainStages rt = replay_retrain(*stack, spans);
    const std::uint64_t replay_mismatches =
        plain.mismatches + tr.mismatches + plain2.mismatches;
    if (replay_mismatches > 0) {
      problems.push_back(std::to_string(replay_mismatches) +
                         " traced-replay decisions differ from the live service");
    }
    const double per_model_req = static_cast<double>(std::max<std::uint64_t>(1, tr.model_requests));
    const double layered_s = tr.explore_s + tr.encode_s + tr.predict_s;
    std::int64_t swap_pause_ns = 0;
    for (int k = 0; k < service.num_shards(); ++k) {
      swap_pause_ns = std::max(swap_pause_ns, service.shard_stats(k).swap_pause_max_ns);
    }
    double cwnd = 0.0, batch_target = 0.0;
    for (const serve::PacingSnapshot& p : pacing) {
      cwnd += p.cwnd / static_cast<double>(pacing.size());
      batch_target += p.batch_target / static_cast<double>(pacing.size());
    }
    metrics = {
        {"warehouse.optimize_us", "us", 1e6 * ratio(tr.optimize_s, static_cast<double>(tr.optimize_calls))},
        {"warehouse.replay_us", "us", 1e6 * mean(cost.replay_s)},
        {"warehouse.history_s", "s", median(history_s)},
        {"core.explore_us", "us", 1e6 * ratio(tr.explore_s, static_cast<double>(tr.requests - shed))},
        {"core.trials_per_request", "count", ratio(static_cast<double>(tr.trials), static_cast<double>(tr.requests - shed))},
        {"core.candidates_per_request", "count", ratio(static_cast<double>(tr.candidates), static_cast<double>(tr.requests - shed))},
        {"core.encode_us", "us", 1e6 * tr.encode_s / per_model_req},
        {"core.nodes_per_plan", "count", ratio(static_cast<double>(tr.encoded_nodes), static_cast<double>(tr.encodes))},
        {"core.predict_us", "us", 1e6 * ratio(tr.predict_s, static_cast<double>(tr.predict_calls))},
        {"core.plans_per_predict", "count", ratio(static_cast<double>(tr.predicted_plans), static_cast<double>(tr.predict_calls))},
        {"core.predict_per_request_us", "us", 1e6 * tr.predict_s / per_model_req},
        {"core.fit_s", "s", rt.fit_s},
        {"core.gate_s", "s", rt.gate_s},
        {"cache.score_hit_share", "share", hit_share({}, primary_cache.score)},
        {"cache.encoding_hit_share", "share", hit_share({}, primary_cache.encoding)},
        {"serve.queue_p50_ms", "ms", 1e3 * quantile(queue, 0.5)},
        {"serve.queue_p90_ms", "ms", 1e3 * quantile(queue, 0.9)},
        {"serve.service_ms", "ms", 1e3 * quantile(service_s, 0.5)},
        {"serve.batch_size_mean", "count", mean(batch)},
        {"serve.closed_batch_size_mean", "count", mean(closed_batch)},
        {"serve.closed_rps", "1/s", median(closed.window_rps)},
        {"serve.shed_share", "share", ratio(static_cast<double>(shed), static_cast<double>(latency.size()))},
        {"serve.pacing_batch_target", "count", batch_target},
        {"serve.pacing_cwnd", "count", cwnd},
        {"serve.journal_append_us", "us", 1e6 * rt.append_s},
        {"serve.journal_replay_ms", "ms", 1e3 * rt.journal_replay_s},
        {"serve.registry_publish_ms", "ms", 1e3 * rt.publish_s},
        {"serve.swap_pause_us", "us", 1e-3 * static_cast<double>(swap_pause_ns)},
        {"serve.unattributed_share", "share", 1.0 - ratio(layered_s / per_model_req, mean(service_s))},
        {"serve.p90_ms", "ms", 1e3 * chunked_quantile(latency, 0.9)},
        {"serve.p99_ms", "ms", 1e3 * quantile(latency, 0.99)},
        {"obs.trace_overhead_share", "share", ratio(median(tr.request_s), median(plain.request_s)) - 1.0},
        {"gen.late_p90_ms", "ms", gen_late_p90_ms},
    };
  }
  diagnostics = {
      {"p99_ms", "ms", 1e3 * quantile(latency, 0.99)},
      {"p50_unchunked_ms", "ms", 1e3 * quantile(latency, 0.5)},
      {"p90_unchunked_ms", "ms", 1e3 * quantile(latency, 0.9)},
      {"closed_mean_rps", "1/s", ratio(static_cast<double>(closed_ok), closed.seconds)},
      {"closed_service_cpus", "count", ratio(closed.service_cpu_s, closed.seconds)},
      {"peak_rss_mb", "MB", peak_mb},
      {"gen_late_p90_ms", "ms", gen_late_p90_ms},
      {"gen_late_max_ms", "ms", 1e3 * quantile(late, 1.0)},
      {"error_share", "share", ratio(static_cast<double>(failed), static_cast<double>(attempted))},
      {"shed_share", "share", ratio(static_cast<double>(shed), static_cast<double>(latency.size()))},
      {"latency_samples", "count", static_cast<double>(latency.size())},
      {"feedback_samples", "count", static_cast<double>(feedback_s.size())},
      {"retrain_samples", "count", static_cast<double>(retrain_s.size())},
      {"cost_decisions", "count", static_cast<double>(cost.decisions)},
      {"cost_ratio_total", "ratio", ratio(cost.chosen_cost, cost.default_cost)},
  };
  const bool correct = problems.empty();

  // ---- report line: fingerprint, bookkeeping, diagnostics -----------------
  obs::JsonWriter report;
  report.begin_object();
  report.kv("workload", spec->name);
  report.kv("seed", static_cast<std::uint64_t>(args.seed));
  report.kv("seconds", args.seconds);
  report.kv("trace", args.trace);
  report.key("host").begin_object();
  report.kv("cpu_model", cpu_model());
  report.kv("simd", nn::simd::active_name());
  report.kv("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  report.kv("steal_share", steal_share);  // over the timed phases
  report.end_object();
  report.key("threads").begin_object();
  report.kv("generator", spec->feedback_loop ? 0 : 1);
  report.kv("collector_or_submitter", 1);
  report.kv("shards_batchers", settings.num_shards);
  report.kv("explorer_per_shard", settings.explorer_threads);
  report.kv("train", settings.train_threads);
  report.kv("gate_replay", settings.gate_threads);
  report.kv("retrain_pool", 1);
  report.kv("offclock_check", settings.check_threads);
  report.end_object();
  report.key("archetype").begin_object();
  report.kv("source", spec->archetype_label);
  report.kv("name", spec->archetype.name);
  report.kv("seed", static_cast<std::uint64_t>(spec->archetype.seed));
  report.kv("n_tables", spec->archetype.n_tables);
  report.kv("n_templates", spec->archetype.n_templates);
  report.kv("join_tables_mean", spec->archetype.join_tables_mean);
  report.kv("template_zipf_skew", spec->archetype.template_zipf_skew);
  report.kv("stats_coverage", spec->archetype.stats_coverage);
  report.end_object();
  report.key("workload_params").begin_object();
  report.kv("pool_size", spec->pool_size);
  report.kv("pool_skew", spec->pool_skew);
  report.kv("template_skew", spec->template_skew);
  report.kv("rate_rps", spec->rate_rps);
  report.kv("burst_factor", spec->burst_factor);
  report.kv("pacing", spec->pacing);
  report.kv("window", settings.window);
  report.kv("retrain_every", settings.retrain_every);
  report.kv("rounds", settings.rounds);
  report.kv("history_days", settings.history_days);
  report.kv("epochs", settings.epochs);
  report.end_object();
  report.key("phases").begin_array();
  for (const Phase* p : phases) {
    std::uint64_t ok = 0;
    for (const Served& s : p->served) ok += s.failed ? 0 : 1;
    report.begin_object();
    report.kv("name", p->name);
    report.kv("sent", p->sent);
    report.kv("succeeded", ok);
    report.kv("failed", p->sent - ok);
    report.kv("seconds", p->seconds);
    report.end_object();
  }
  report.end_array();
  report.kv("generator_behind", gen_behind);
  report.key("setup_s_samples").begin_array();
  for (double v : setup_s) report.value(v);
  report.end_array();
  report.key("diagnostics").begin_object();
  for (const Metric& m : diagnostics) report.kv(m.name, m.value);
  report.end_object();
  report.key("problems").begin_array();
  for (const std::string& p : problems) report.value(p);
  report.end_array();
  report.end_object();

  obs::JsonWriter result;
  result.begin_object();
  result.kv("correct", correct);
  result.kv("attempted", attempted);
  result.kv("failed", failed);
  result.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    result.key(m.name).begin_object();
    result.kv("value", m.value);
    result.kv("unit", m.unit);
    result.end_object();
  }
  result.end_object();
  result.end_object();

  stack.reset();
  std::error_code ec;
  std::filesystem::remove_all(state_root, ec);
  const std::string stem = args.work_dir + "/results/" + spec->name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace);
  std::filesystem::create_directories(args.work_dir + "/results");
  std::ofstream(stem + ".json") << "{\"report\":" << report.str()
                                << ",\"result\":" << result.str() << "}\n";
  if (spans.enabled) spans.write_chrome_trace(stem + ".trace.json");

  for (const std::string& p : problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  std::cout << "{\"report\":" << report.str() << "}\n";
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: loam_perfbench --workload <name> --seed <n> "
                 "--seconds <1-60> --trace <0|1> [--work-dir <dir>] "
                 "[--force-fallback]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loam_perfbench: %s\n", e.what());
    return 2;
  }
}
