// The live stack (runtime + OptimizerService) and the timed phases.
#include <time.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "perfbench.h"

namespace perfbench {

Stack::~Stack() {
  service.reset();  // stops the shards; it holds a pointer into runtime
  runtime.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::unique_ptr<Stack> set_up(const WorkloadSpec& spec, const Settings& settings,
                              const Inputs& inputs, const std::string& dir,
                              bool force_fallback, SetupTiming* timing) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto stack = std::make_unique<Stack>();
  stack->dir = dir;

  serve::ServeConfig& cfg = stack->config;
  cfg.num_shards = settings.num_shards;
  cfg.registry_root = dir + "/registry";
  cfg.journal_path = dir + "/feedback.jnl";
  cfg.explorer.num_threads = settings.explorer_threads;
  cfg.predictor.epochs = settings.epochs;
  cfg.predictor.num_threads = settings.train_threads;
  cfg.gate.sample_queries = settings.gate_sample_queries;
  cfg.gate.replay_threads = settings.gate_threads;
  cfg.pacing.enabled = spec.pacing;
  // The benchmark retrains synchronously at fixed record counts (feedback
  // loop) so the decision sequence is a function of the seed alone.
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  // The model path is what is measured: a deviance rollback would silently
  // turn a run into a native-optimizer run.
  cfg.monitor.max_mean_overrun = 1e300;

  const std::int64_t t0 = now_ns();
  core::RuntimeConfig rc;
  rc.seed = settings.runtime_seed;
  stack->runtime = std::make_unique<core::ProjectRuntime>(spec.archetype, rc);
  const std::int64_t h0 = now_ns();
  stack->runtime->simulate_history(settings.history_days,
                                   settings.history_queries_per_day);
  const std::int64_t h1 = now_ns();
  stack->service =
      std::make_unique<serve::OptimizerService>(stack->runtime.get(), cfg);
  serve::OptimizerService& service = *stack->service;
  service.start();
  std::int64_t r0 = 0, r1 = 0;
  if (!force_fallback) {
    r0 = now_ns();
    service.retrain_sync();
    r1 = now_ns();
    const std::vector<serve::ModelVersionMeta> versions =
        service.registry().versions();
    if (versions.empty()) {
      throw std::runtime_error("bootstrap retrain published no model version");
    }
    // Serve the fitted model whatever the gate's verdict.
    if (service.active_version() != versions.back().version) {
      service.swap_to_version(versions.back().version);
    }
  }
  for (std::uint32_t q : inputs.warm) service.optimize(inputs.query(q));
  const std::int64_t t1 = now_ns();

  timing->setup_s = 1e-9 * static_cast<double>(t1 - t0);
  timing->history_s = 1e-9 * static_cast<double>(h1 - h0);
  timing->retrain_s = 1e-9 * static_cast<double>(r1 - r0);
  return stack;
}

Served reduce(std::uint32_t query, const serve::ServeDecision& d) {
  Served s;
  s.query = query;
  s.shed = d.shed;
  s.model_version = d.model_version;
  s.chosen = d.chosen;
  s.n_plans = static_cast<int>(d.generation.plans.size());
  s.batch_size = d.batch_size;
  s.queue_s = d.queue_seconds;
  s.total_s = d.total_seconds;
  s.latency_s = d.total_seconds;
  const int def = d.generation.default_index;
  if (s.n_plans == 0 || d.chosen < 0 || d.chosen >= s.n_plans || def < 0 ||
      def >= s.n_plans) {
    s.failed = true;
    return s;
  }
  s.chosen_sig = d.generation.plans[static_cast<std::size_t>(d.chosen)].signature();
  s.default_sig = d.generation.plans[static_cast<std::size_t>(def)].signature();
  return s;
}

namespace {

// Resolves one future into a Served record; a thrown decision counts failed.
Served resolve(std::uint32_t query, std::future<serve::ServeDecision>& future,
               std::vector<serve::ServeDecision>* kept, std::size_t keep) {
  try {
    serve::ServeDecision d = future.get();
    Served s = reduce(query, d);
    if (kept != nullptr && kept->size() < keep && !s.failed && !d.shed) {
      kept->push_back(std::move(d));
    }
    return s;
  } catch (const std::exception&) {
    Served s;
    s.query = query;
    s.failed = true;
    return s;
  }
}

// CPU seconds charged to the process or to the calling thread. The kernel
// charges neither with time the hypervisor took from a virtual CPU (steal)
// nor with time spent waiting to run.
double cpu_clock_s(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

// CPU time of every thread but the calling one.
double other_threads_cpu_s() {
  return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID) - cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
}

void wait_until(std::int64_t due_ns) {
  // Sleep most of the gap, spin the last stretch: the generator's lateness
  // is reported, so it should come from the system, not from the sleep.
  for (;;) {
    const std::int64_t left = due_ns - now_ns();
    if (left <= 0) return;
    if (left > 150'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

void run_open_loop(Stack& stack, const Inputs& inputs, std::size_t begin,
                   std::size_t end, std::int64_t offset_ns, std::size_t keep,
                   Phase* phase) {
  const std::size_t n = end - begin;
  std::vector<std::future<serve::ServeDecision>> futures(n);
  std::vector<char> admitted(n, 0);
  std::vector<std::int64_t> late_ns(n, 0);
  std::atomic<std::size_t> submitted{0};

  const std::int64_t start = now_ns() + 2'000'000;
  std::thread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      warehouse::Query q = inputs.query(inputs.open[begin + i]);
      const std::int64_t due = start + inputs.open_due_ns[begin + i] - offset_ns;
      wait_until(due);
      const std::int64_t sent = now_ns();
      late_ns[i] = sent - due;
      admitted[i] = stack.service->try_submit(std::move(q), &futures[i]) ? 1 : 0;
      submitted.store(i + 1, std::memory_order_release);
    }
  });

  // Decisions are collected as they complete: holding every future (and its
  // candidate plans) until the end would grow memory with the request count.
  for (std::size_t i = 0; i < n; ++i) {
    // Latency comes from the service's own stamps and the generator's, so
    // a coarse poll here costs no accuracy and keeps wake-ups rare.
    while (submitted.load(std::memory_order_acquire) <= i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Served s;
    if (admitted[i]) {
      s = resolve(inputs.open[begin + i], futures[i], &phase->kept, keep);
      futures[i] = {};
    } else {
      s.query = inputs.open[begin + i];
      s.failed = true;
    }
    s.late_s = 1e-9 * static_cast<double>(late_ns[i]);
    s.latency_s = s.late_s + s.total_s;
    phase->served.push_back(s);
  }
  generator.join();
  phase->seconds += 1e-9 * static_cast<double>(now_ns() - start);
  phase->sent += n;
}

void run_closed_loop(Stack& stack, const Inputs& inputs, int window,
                     double seconds, std::size_t* next, Phase* phase) {
  struct Outstanding {
    std::uint32_t query;
    std::future<serve::ServeDecision> future;
  };
  std::deque<Outstanding> outstanding;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  const double cpu0 = other_threads_cpu_s();
  constexpr std::int64_t kWindowNs = 500'000'000;
  std::vector<std::uint64_t> done(
      static_cast<std::size_t>((deadline - start) / kWindowNs), 0);
  const auto drain_one = [&] {
    phase->served.push_back(resolve(outstanding.front().query,
                                    outstanding.front().future, nullptr, 0));
    outstanding.pop_front();
    if (phase->served.back().failed) return;
    const std::int64_t t = now_ns();
    const auto w = static_cast<std::size_t>((t - start) / kWindowNs);
    if (w < done.size()) ++done[w];
    if (t < deadline) ++phase->completed;
  };
  while (now_ns() < deadline && *next < inputs.closed.size()) {
    if (static_cast<int>(outstanding.size()) >= window) {
      drain_one();
      continue;
    }
    const std::uint32_t q = inputs.closed[(*next)++];
    Outstanding o{q, {}};
    ++phase->sent;
    if (stack.service->try_submit(inputs.query(q), &o.future)) {
      outstanding.push_back(std::move(o));
    } else {
      Served s;
      s.query = q;
      s.failed = true;
      phase->served.push_back(s);
    }
  }
  phase->service_cpu_s += other_threads_cpu_s() - cpu0;
  while (!outstanding.empty()) drain_one();
  phase->seconds += 1e-9 * static_cast<double>(now_ns() - start);
  for (std::uint64_t n : done) {
    phase->window_rps.push_back(static_cast<double>(n) * 1e9 / kWindowNs);
  }
}

void run_feedback_loop(Stack& stack, const Inputs& inputs,
                       const Settings& settings, int begin, int end,
                       double hard_stop_s, warehouse::FlightingEnv& production,
                       Phase* phase) {
  serve::OptimizerService& service = *stack.service;
  const std::int64_t start = now_ns();
  const std::int64_t hard_stop = start + static_cast<std::int64_t>(hard_stop_s * 1e9);
  for (int i = begin; i < end && now_ns() < hard_stop; ++i) {
    const std::uint32_t q = inputs.open[static_cast<std::size_t>(i) % inputs.open.size()];
    ++phase->sent;
    serve::ServeDecision d;
    try {
      d = service.optimize(inputs.query(q));
    } catch (const std::exception&) {
      Served s;
      s.query = q;
      s.failed = true;
      phase->served.push_back(s);
      continue;
    }
    const Served s = reduce(q, d);
    phase->served.push_back(s);
    if (s.failed) continue;
    const warehouse::ExecutionResult exec =
        production.replay_once(d.generation.plans[static_cast<std::size_t>(d.chosen)]);
    const std::int64_t f0 = now_ns();
    service.record_feedback(d, exec);
    phase->feedback_s.push_back(1e-9 * static_cast<double>(now_ns() - f0));
    if (phase->feedback_s.size() % static_cast<std::size_t>(settings.retrain_every) == 0) {
      const std::int64_t r0 = now_ns();
      service.retrain_sync();
      phase->retrain_s.push_back(1e-9 * static_cast<double>(now_ns() - r0));
    }
  }
  phase->seconds += 1e-9 * static_cast<double>(now_ns() - start);
}

}  // namespace perfbench
