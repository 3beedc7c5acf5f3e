// Shared types of the LOAM serve/lifecycle benchmark (see perfbench/README.md).
//
// The benchmark drives a live serve::OptimizerService from the outside: it
// generates every input from the workload seed before timing starts, runs the
// timed phases, then checks each served decision against an independent
// replay built from the program's public module calls. Per-layer numbers come
// from that replay (traced runs only); the program itself carries no
// benchmark hooks.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/loam.h"
#include "serve/service.h"
#include "warehouse/workload.h"

namespace perfbench {

using namespace loam;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads and their seeded inputs
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  std::string archetype_label;  // where the project shape comes from
  warehouse::ProjectArchetype archetype;
  bool feedback_loop = false;   // closed optimize→execute→feedback loop
  bool pacing = false;
  // Request stream: either Zipf draws from a fixed pool of instantiated
  // queries (pool_size > 0; a feedback loop instead makes whole passes over
  // the pool in seed-shuffled order), or a fresh instantiation per request
  // with templates drawn Zipf(template_skew) (0 = uniform).
  int pool_size = 0;
  double pool_skew = 1.0;
  // The pool and its popularity ranks are part of the workload, like the
  // project: they come from this constant, not from the run's seed, which
  // drives only the draws, their order and their arrival times.
  std::uint64_t pool_seed = 0;
  double template_skew = 0.0;
  // Open-loop arrival schedule: Poisson at rate_rps, or on/off bursts when
  // burst_factor > 1 (on-periods at burst_factor x the off-period rate, equal
  // lengths, same mean rate).
  double rate_rps = 0.0;
  double burst_factor = 1.0;
  int burst_period_ms = 40;
  // Whether every decision must come from a registry model.
  bool require_model = true;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// Fixed knobs of every run, recorded in the result's host fingerprint.
struct Settings {
  int num_shards = 2;
  int explorer_threads = 1;   // per shard: the batcher explores serially
  // AdaptiveCostPredictor::fit: the library default. Parallel training
  // synchronizes every minibatch, so a virtual CPU the hypervisor takes away
  // stalls all of it; at 4 threads retrain time swung 2x with host steal.
  int train_threads = 1;
  int gate_threads = 4;       // flighting replay in the deployment gate
  int check_threads = 4;      // off-clock decision replay
  int epochs = 10;            // as loam_sim_cli serve
  int gate_sample_queries = 12;
  int history_days = 5;
  int history_queries_per_day = 150;
  // A run is this many rounds, each a slice of the primary phase, (but the
  // last) one more timed set-up beside the live stack, and a slice of the
  // closed loop on the first of those extra stacks. The host's speed shifts
  // by 10-25% for seconds at a time, so every metric takes its samples from
  // the whole run rather than from one stretch of it. setup_s is the median
  // over the rounds' set-ups.
  int rounds = 4;
  int warm_requests = 64;
  int window = 64;            // closed-loop outstanding requests: enough
                              // that every batch leaves full, no linger
  int retrain_every = 200;    // feedback records between retrain_sync calls
  // Feedback-loop length: retrains after 200, 400 and 600 records, then 100
  // cycles on the last version so the closed loop after it starts warm.
  int feedback_cycles = 700;
  int cost_decisions = 4000;  // primary-phase decisions replayed for cost_ratio
  int feedback_samples = 600; // model-path decisions fed back on serve mixes
  int feedback_rounds = 2;    // this many times each round
  std::uint64_t runtime_seed = 99;
  std::uint64_t flighting_seed = 0xc057'f11eull;
};

// All requests of one run, generated from the seed before anything is timed.
// A request is stored as its template and parameter-binding seed and turned
// into a Query (a pure function of the two) when it is sent, so a run's
// inputs stay a few bytes per request however long the streams are. Streams
// index into `table` (a recurring pool repeats indices; a fresh stream never
// does).
struct RequestSpec {
  std::uint32_t template_index = 0;
  std::uint64_t param_seed = 0;
};

struct Inputs {
  const warehouse::Project* project = nullptr;
  int day = 0;  // submit day of every request
  std::vector<RequestSpec> table;
  std::vector<std::uint32_t> warm;
  std::vector<std::uint32_t> open;        // open-loop / feedback-loop stream
  std::vector<std::int64_t> open_due_ns;  // open-loop schedule offsets
  std::vector<std::uint32_t> closed;      // closed-loop stream

  warehouse::Query query(std::uint32_t index) const;
};

Inputs make_inputs(const WorkloadSpec& spec, const warehouse::Project& project,
                   const Settings& settings, std::uint64_t seed,
                   double open_seconds, double total_seconds);

// ---------------------------------------------------------------------------
// The live stack and its timed phases
// ---------------------------------------------------------------------------

struct Stack {
  std::string dir;
  std::unique_ptr<core::ProjectRuntime> runtime;
  std::unique_ptr<serve::OptimizerService> service;
  serve::ServeConfig config;
  ~Stack();
};

struct SetupTiming {
  double setup_s = 0.0;
  double history_s = 0.0;
  double retrain_s = 0.0;
};

// Builds runtime + service in `dir`, bootstraps, swaps to the fitted version
// whatever the gate said (unless `force_fallback`), and runs the warm pass.
std::unique_ptr<Stack> set_up(const WorkloadSpec& spec, const Settings& settings,
                              const Inputs& inputs, const std::string& dir,
                              bool force_fallback, SetupTiming* timing);

// One served request, reduced to what the checks and metrics need.
struct Served {
  std::uint32_t query = 0;
  bool failed = false;  // refused, threw, or structurally invalid
  bool shed = false;
  int model_version = -1;
  int chosen = 0;
  int n_plans = 0;
  int batch_size = 0;
  std::uint64_t chosen_sig = 0;
  std::uint64_t default_sig = 0;
  double queue_s = 0.0;
  double total_s = 0.0;
  double late_s = 0.0;     // open loop: send time - due time
  double latency_s = 0.0;  // late_s + total_s (closed loops: total_s)
};

// Turns a decision into a Served record; marks it failed when it is
// structurally invalid (chosen or default index out of range).
Served reduce(std::uint32_t query, const serve::ServeDecision& d);

struct Phase {
  std::string name;
  std::vector<Served> served;
  double seconds = 0.0;
  std::uint64_t sent = 0;
  // Full decisions of the first `keep` model-path requests, for the
  // off-clock feedback timing on serve mixes. Shed decisions journal one
  // record instead of up to three, and how many of them come first depends
  // on the pacing controller's start-up, so they are left out.
  std::vector<serve::ServeDecision> kept;
  // Closed loop only: completions/s in each Settings-independent 0.5 s
  // window before a slice's deadline (the drain after it is not counted).
  std::vector<double> window_rps;
  // Closed loop only: decisions completed before the slices' deadlines, and
  // the CPU time the process spent outside the submitting thread until then
  // (the service's shard threads; nothing else runs during the phase).
  std::uint64_t completed = 0;
  double service_cpu_s = 0.0;
  // Feedback loop only.
  std::vector<double> feedback_s;
  std::vector<double> retrain_s;
};

// The timed phases run in slices, one per round of a run, each appending to
// `phase`.
//
// Sends open-loop requests [begin, end) on their schedule, shifted so that
// the slice's offset `offset_ns` is its start, and keeps the full decisions
// of the phase's first `keep` model-path requests.
void run_open_loop(Stack& stack, const Inputs& inputs, std::size_t begin,
                   std::size_t end, std::int64_t offset_ns, std::size_t keep,
                   Phase* phase);
// Keeps `window` requests outstanding for `seconds`, sending the closed
// stream from `*next` on (and advancing it, so no request repeats).
void run_closed_loop(Stack& stack, const Inputs& inputs, int window,
                     double seconds, std::size_t* next, Phase* phase);
// Runs optimize → execute on `production` → feedback cycles [begin, end) (a
// retrain every Settings::retrain_every records), so over all slices the
// decision sequence and the retrain count depend on the seed alone;
// `hard_stop_s` bounds a much slower build.
void run_feedback_loop(Stack& stack, const Inputs& inputs,
                       const Settings& settings, int begin, int end,
                       double hard_stop_s, warehouse::FlightingEnv& production,
                       Phase* phase);

// ---------------------------------------------------------------------------
// Off-clock checks and the traced replay
// ---------------------------------------------------------------------------

// In-memory spans of the traced replay, written out when the run ends.
struct SpanLog {
  struct Span {
    const char* name = "";
    std::uint32_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index of the enclosing span, -1 = root
  };
  bool enabled = false;
  std::vector<Span> spans;

  // Opens a span and returns its index (-1, and no clock read, when
  // disabled). close() ends it and returns its duration in seconds (0 for
  // -1).
  std::int32_t open(const char* name, std::uint32_t request,
                    std::int32_t parent);
  double close(std::int32_t index);
  void write_chrome_trace(const std::string& path) const;
};

// Models of every registry version a decision names, loaded from their
// checkpoints exactly as the service serves them.
class ModelCache {
 public:
  explicit ModelCache(const Stack& stack) : stack_(stack) {}
  const core::CostModel& get(int version);

 private:
  const Stack& stack_;
  std::vector<std::pair<int, std::unique_ptr<core::AdaptiveCostPredictor>>> models_;
};

// Re-derives every decision of `phases` from explore → encode → predict →
// argmin and compares the chosen and default plan signatures (and, for shed
// or fallback decisions, the native plan). Returns the number of mismatches;
// `first_error` describes one.
std::uint64_t check_decisions(Stack& stack, const Inputs& inputs,
                              const std::vector<const Phase*>& phases,
                              ModelCache& models, int threads,
                              std::string* first_error);

// Executes the chosen and the default plan of the first `limit` decisions of
// `phase` on flighting environments seeded from `seed` (fixed chunks of
// decisions, one environment each, so the sums do not depend on `threads`).
// Plans are re-derived by exploration and matched by signature.
struct CostReplay {
  double chosen_cost = 0.0;
  double default_cost = 0.0;
  double log_ratio_sum = 0.0;  // Σ log(chosen / default), for the geomean
  std::uint64_t decisions = 0;
  std::uint64_t unmatched = 0;  // chosen signature not among the candidates
  std::vector<double> replay_s;  // per replay_once call
};
CostReplay replay_costs(Stack& stack, const Inputs& inputs, const Phase& phase,
                        std::size_t limit, int threads, std::uint64_t seed);

// Per-request layer timings of one serial replay pass over a phase.
struct ReplayStats {
  std::vector<double> request_s;  // whole model-path request, replayed
  double explore_s = 0.0, encode_s = 0.0, predict_s = 0.0;
  double optimize_s = 0.0;
  std::uint64_t requests = 0, model_requests = 0;
  std::uint64_t trials = 0, candidates = 0;
  std::uint64_t encodes = 0, encoded_nodes = 0;
  std::uint64_t predict_calls = 0, predicted_plans = 0;
  std::uint64_t optimize_calls = 0;
  std::uint64_t mismatches = 0;
};

// Serial replay of `phase` in request order with a fresh inference cache
// that mirrors the service's. With `spans` enabled every layer call is
// timed (and the native optimizer is timed in a separate sweep); disabled,
// only the whole request is.
ReplayStats replay_phase(Stack& stack, const Inputs& inputs, const Phase& phase,
                         ModelCache& models, SpanLog& spans);

// Times one retrain's stages from the outside on the live journal: journal
// replay, fit, deployment gate, registry publish (into a scratch registry)
// and journal appends (into a scratch journal).
struct RetrainStages {
  double journal_replay_s = 0.0;
  double fit_s = 0.0;
  double gate_s = 0.0;
  double publish_s = 0.0;
  double append_s = 0.0;  // mean per record
};
RetrainStages replay_retrain(Stack& stack, SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
