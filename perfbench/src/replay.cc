// Off-clock decision checks, the traced per-layer replay, and the retrain
// stage replay. Everything here calls the program's public module functions
// directly; nothing inside the program is instrumented.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "cache/cache.h"
#include "core/gate.h"
#include "obs/json.h"
#include "perfbench.h"
#include "util/hash.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::int32_t SpanLog::open(const char* name, std::uint32_t request,
                           std::int32_t parent) {
  if (!enabled) return -1;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = now_ns();
  spans.push_back(s);
  return static_cast<std::int32_t>(spans.size() - 1);
}

double SpanLog::close(std::int32_t index) {
  if (index < 0) return 0.0;
  Span& s = spans[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  return 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  obs::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.kv("ts", 1e-3 * static_cast<double>(s.start_ns - base));
    w.kv("dur", 1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    w.key("args").begin_object();
    w.kv("id", static_cast<std::int64_t>(i));
    w.kv("parent", static_cast<std::int64_t>(s.parent));
    w.kv("request", static_cast<std::int64_t>(s.request));
    w.end_object();
    w.end_object();
  }
  w.end_array().end_object();
  std::ofstream(path) << w.str() << "\n";
}

// ---------------------------------------------------------------------------
// Models and the serve path's scoring, rebuilt from public calls
// ---------------------------------------------------------------------------

const core::CostModel& ModelCache::get(int version) {
  for (const auto& [v, model] : models_) {
    if (v == version) return *model;
  }
  const std::optional<serve::ModelVersionMeta> meta =
      stack_.service->registry().find(version);
  if (!meta) {
    throw std::runtime_error("decision names unknown model version " +
                             std::to_string(version));
  }
  auto model = std::make_unique<core::AdaptiveCostPredictor>(
      stack_.service->encoder().feature_dim(), stack_.config.predictor);
  model->load(meta->checkpoint_path);
  models_.emplace_back(version, std::move(model));
  return *models_.back().second;
}

namespace {

int argmin(const std::vector<double>& v) {
  int best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
  }
  return best;
}

// The representative environment the service encodes candidates under.
std::optional<warehouse::EnvFeatures> serve_env(const Stack& stack) {
  if (!stack.config.encoding.include_env) return std::nullopt;
  return stack.service->env_context().representative;
}

std::uint64_t serve_env_fingerprint(const Stack& stack) {
  if (!stack.config.encoding.include_env) return 0x9e1debull;
  const warehouse::EnvFeatures rep = stack.service->env_context().representative;
  const double vals[4] = {rep.cpu_idle, rep.io_wait, rep.load5_norm, rep.mem_usage};
  return cache::fingerprint(vals);
}

std::vector<double> score(const Stack& stack, const core::CostModel& model,
                          const core::CandidateGeneration& gen) {
  const std::optional<warehouse::EnvFeatures> env = serve_env(stack);
  std::vector<nn::Tree> trees;
  trees.reserve(gen.plans.size());
  for (const warehouse::Plan& p : gen.plans) {
    trees.push_back(stack.service->encoder().encode(p, nullptr, env));
  }
  return model.predict_batch(trees);
}

}  // namespace

// ---------------------------------------------------------------------------
// Decision checks
// ---------------------------------------------------------------------------

std::uint64_t check_decisions(Stack& stack, const Inputs& inputs,
                              const std::vector<const Phase*>& phases,
                              ModelCache& models, int threads,
                              std::string* first_error) {
  // What each distinct query needs: the native plan always (it must be the
  // default candidate, and it is what a shed request serves), exploration
  // only when some request went down the model path, and a score per model
  // version that served it.
  struct Need {
    std::set<int> versions;
    bool explore = false;
  };
  std::map<std::uint32_t, Need> needs;
  for (const Phase* phase : phases) {
    for (const Served& s : phase->served) {
      if (s.failed) continue;
      Need& n = needs[s.query];
      if (!s.shed) n.explore = true;
      if (!s.shed && s.model_version >= 0) {
        n.versions.insert(s.model_version);
        models.get(s.model_version);  // load before the workers share it
      }
    }
  }
  struct Expect {
    std::uint64_t native = 0, default_sig = 0;
    std::map<int, std::uint64_t> chosen;  // version -> chosen signature
    std::string error;
  };
  std::vector<std::uint32_t> keys;
  for (const auto& [q, n] : needs) keys.push_back(q);
  std::vector<Expect> expect(keys.size());

  const core::PlanExplorer explorer(&stack.runtime->optimizer(),
                                    stack.config.explorer);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < keys.size();) {
      const warehouse::Query q = inputs.query(keys[i]);
      const Need& n = needs.at(keys[i]);
      Expect& e = expect[i];
      try {
        e.native = stack.runtime->optimizer().optimize(q).signature();
        if (!n.explore) continue;
        const core::CandidateGeneration gen = explorer.explore(q);
        e.default_sig =
            gen.plans.at(static_cast<std::size_t>(gen.default_index)).signature();
        if (e.default_sig != e.native) e.error = "default candidate is not the native plan";
        e.chosen[-1] = e.default_sig;
        for (int v : n.versions) {
          const int c = argmin(score(stack, models.get(v), gen));
          e.chosen[v] = gen.plans[static_cast<std::size_t>(c)].signature();
        }
      } catch (const std::exception& ex) {
        e.error = std::string("replay threw: ") + ex.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  std::map<std::uint32_t, const Expect*> by_query;
  for (std::size_t i = 0; i < keys.size(); ++i) by_query[keys[i]] = &expect[i];
  std::uint64_t mismatches = 0;
  for (const Phase* phase : phases) {
    for (std::size_t r = 0; r < phase->served.size(); ++r) {
      const Served& s = phase->served[r];
      if (s.failed) continue;
      const Expect& e = *by_query.at(s.query);
      std::string error = e.error;
      if (error.empty() && s.shed) {
        if (s.n_plans != 1 || s.chosen_sig != e.native) error = "shed decision is not the native plan";
      } else if (error.empty()) {
        if (s.default_sig != e.default_sig) {
          error = "default plan differs from the replay";
        } else if (s.chosen_sig != e.chosen.at(s.model_version)) {
          error = "chosen plan differs from the replay";
        }
      }
      if (!error.empty()) {
        if (mismatches == 0 && first_error != nullptr) {
          *first_error = phase->name + " request " + std::to_string(r) + ": " + error;
        }
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Cost replay
// ---------------------------------------------------------------------------

CostReplay replay_costs(Stack& stack, const Inputs& inputs, const Phase& phase,
                        std::size_t limit, int threads, std::uint64_t seed) {
  constexpr std::size_t kChunk = 200;
  const std::size_t n = std::min(limit, phase.served.size());
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  struct Part {
    double chosen = 0.0, fallback = 0.0, log_ratio = 0.0;
    std::uint64_t decisions = 0, unmatched = 0;
    std::vector<double> replay_s;
  };
  std::vector<Part> parts(chunks);
  const core::PlanExplorer explorer(&stack.runtime->optimizer(),
                                    stack.config.explorer);
  const warehouse::NativeOptimizer& native = stack.runtime->optimizer();
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t c; (c = next.fetch_add(1)) < chunks;) {
      Part& part = parts[c];
      warehouse::FlightingEnv env(stack.runtime->config().cluster,
                                  stack.runtime->config().executor,
                                  seed ^ mix64(c + 1));
      std::map<std::uint32_t, core::CandidateGeneration> explored;
      const auto replay = [&](const warehouse::Plan& plan) {
        const std::int64_t t0 = now_ns();
        const warehouse::ExecutionResult exec = env.replay_once(plan);
        part.replay_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
        return exec;
      };
      for (std::size_t r = c * kChunk; r < std::min(n, (c + 1) * kChunk); ++r) {
        const Served& s = phase.served[r];
        if (s.failed) continue;
        const warehouse::Query q = inputs.query(s.query);
        std::vector<warehouse::Plan> shed_plan;
        const std::vector<warehouse::Plan>* plans = nullptr;
        int default_index = 0;
        if (s.shed) {
          shed_plan.push_back(native.optimize(q));
          plans = &shed_plan;
        } else {
          auto it = explored.find(s.query);
          if (it == explored.end()) it = explored.emplace(s.query, explorer.explore(q)).first;
          plans = &it->second.plans;
          default_index = it->second.default_index;
        }
        const warehouse::Plan* chosen = nullptr;
        for (const warehouse::Plan& p : *plans) {
          if (p.signature() == s.chosen_sig) chosen = &p;
        }
        if (chosen == nullptr) {
          ++part.unmatched;
          continue;
        }
        const double cost = replay(*chosen).cpu_cost;
        const double fallback =
            replay((*plans)[static_cast<std::size_t>(default_index)]).cpu_cost;
        part.chosen += cost;
        part.fallback += fallback;
        part.log_ratio += std::log(cost / fallback);
        ++part.decisions;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  // Chunk order, so the floating-point sums are the same at any thread count.
  CostReplay out;
  for (Part& part : parts) {
    out.chosen_cost += part.chosen;
    out.default_cost += part.fallback;
    out.log_ratio_sum += part.log_ratio;
    out.decisions += part.decisions;
    out.unmatched += part.unmatched;
    out.replay_s.insert(out.replay_s.end(), part.replay_s.begin(), part.replay_s.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serial per-layer replay
// ---------------------------------------------------------------------------

ReplayStats replay_phase(Stack& stack, const Inputs& inputs, const Phase& phase,
                         ModelCache& models, SpanLog& spans) {
  ReplayStats st;
  const core::PlanExplorer explorer(&stack.runtime->optimizer(),
                                    stack.config.explorer);
  const warehouse::NativeOptimizer& native = stack.runtime->optimizer();
  cache::InferenceCache memo("perfbench.replay", stack.config.cache);
  const std::optional<warehouse::EnvFeatures> env = serve_env(stack);
  const std::uint64_t env_fp = serve_env_fingerprint(stack);

  for (std::uint32_t r = 0; r < phase.served.size(); ++r) {
    const Served& s = phase.served[r];
    if (s.failed) continue;
    const warehouse::Query q = inputs.query(s.query);
    ++st.requests;
    if (s.shed) {
      if (native.optimize(q).signature() != s.chosen_sig) ++st.mismatches;
      continue;
    }
    const std::int32_t root = spans.open("request", r, -1);
    const std::int64_t t0 = now_ns();
    std::int32_t sp = spans.open("core.explore", r, root);
    const core::CandidateGeneration gen = explorer.explore(q);
    st.explore_s += spans.close(sp);
    st.trials += static_cast<std::uint64_t>(gen.trials);
    st.candidates += gen.plans.size();
    int chosen = gen.default_index;
    if (s.model_version >= 0) {
      // The shard's scoring path: score-cache hit, else encoding-cache hit or
      // encode, then one predict_batch_ptrs call over the misses.
      const core::CostModel& model = models.get(s.model_version);
      std::vector<double> predicted(gen.plans.size(), 0.0);
      std::vector<std::size_t> miss_at;
      std::vector<std::uint64_t> miss_key;
      std::vector<std::shared_ptr<const nn::Tree>> miss_tree;
      for (std::size_t c = 0; c < gen.plans.size(); ++c) {
        const std::uint64_t psig = gen.plans[c].signature();
        const std::uint64_t skey =
            cache::InferenceCache::score_key(psig, env_fp, s.model_version);
        if (const std::optional<double> hit = memo.get_score(skey)) {
          predicted[c] = *hit;
          continue;
        }
        const std::uint64_t ekey = cache::InferenceCache::encoding_key(psig, env_fp);
        std::shared_ptr<const nn::Tree> tree = memo.get_encoding(ekey);
        if (tree == nullptr) {
          sp = spans.open("core.encode", r, root);
          tree = std::make_shared<const nn::Tree>(
              stack.service->encoder().encode(gen.plans[c], nullptr, env));
          st.encode_s += spans.close(sp);
          ++st.encodes;
          st.encoded_nodes += static_cast<std::uint64_t>(tree->node_count());
          memo.put_encoding(ekey, tree);
        }
        miss_at.push_back(c);
        miss_key.push_back(skey);
        miss_tree.push_back(std::move(tree));
      }
      if (!miss_at.empty()) {
        std::vector<const nn::Tree*> ptrs;
        for (const auto& t : miss_tree) ptrs.push_back(t.get());
        sp = spans.open("core.predict", r, root);
        const std::vector<double> fresh = model.predict_batch_ptrs(ptrs);
        st.predict_s += spans.close(sp);
        ++st.predict_calls;
        st.predicted_plans += ptrs.size();
        for (std::size_t j = 0; j < miss_at.size(); ++j) {
          predicted[miss_at[j]] = fresh[j];
          memo.put_score(miss_key[j], fresh[j]);
        }
      }
      chosen = argmin(predicted);
      ++st.model_requests;
      st.request_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    }
    spans.close(root);
    if (gen.plans[static_cast<std::size_t>(chosen)].signature() != s.chosen_sig) {
      ++st.mismatches;
    }
  }
  // The native optimizer on its own (the shed path's whole cost), in a
  // separate sweep so it cannot warm the explorer's trials above.
  if (spans.enabled) {
    for (std::uint32_t r = 0; r < phase.served.size(); ++r) {
      if (phase.served[r].failed) continue;
      const warehouse::Query q = inputs.query(phase.served[r].query);
      const std::int32_t o = spans.open("warehouse.optimize", r, -1);
      native.optimize(q);
      st.optimize_s += spans.close(o);
      ++st.optimize_calls;
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// Retrain stages
// ---------------------------------------------------------------------------

RetrainStages replay_retrain(Stack& stack, SpanLog& spans) {
  RetrainStages out;
  serve::OptimizerService& service = *stack.service;
  const serve::ServeConfig& cfg = stack.config;
  const auto timed = [&](const char* name, const auto& fn) {
    const std::int64_t t0 = now_ns();
    const std::int32_t sp = spans.open(name, 0, -1);
    fn();
    spans.close(sp);
    return 1e-9 * static_cast<double>(now_ns() - t0);
  };

  core::TrainingData data;
  out.journal_replay_s = timed("serve.journal_replay", [&] {
    data = service.journal().replay(cfg.max_journal_examples);
  });
  core::AdaptiveCostPredictor model(service.encoder().feature_dim(), cfg.predictor);
  out.fit_s = timed("core.fit", [&] {
    model.fit(data.default_plans, data.candidate_plans);
  });
  const int first_day = std::max(0, service.journal().max_day()) + 1;
  out.gate_s = timed("core.gate", [&] {
    core::evaluate_selection(
        *stack.runtime,
        [&](const core::CandidateGeneration& gen) {
          return argmin(score(stack, model, gen));
        },
        cfg.explorer, first_day, cfg.gate);
  });
  serve::ModelRegistry scratch_registry(stack.dir + "/scratch_registry");
  out.publish_s = timed("serve.registry_publish", [&] {
    scratch_registry.publish(model, serve::ModelVersionMeta());
  });

  std::vector<serve::FeedbackRecord> records;
  for (const core::TrainingExample& ex : data.default_plans) {
    if (records.size() >= 500) break;
    serve::FeedbackRecord r;
    r.day = first_day;
    r.cpu_cost = ex.cpu_cost;
    r.tree = ex.tree;
    records.push_back(std::move(r));
  }
  serve::ShardedFeedbackJournal scratch_journal(
      stack.dir + "/scratch_journal.jnl", cfg.num_shards,
      service.encoder().feature_dim());
  const double append_total = timed("serve.journal_append", [&] {
    for (std::size_t i = 0; i < records.size(); ++i) {
      scratch_journal.append(static_cast<int>(i) % cfg.num_shards, records[i]);
    }
  });
  out.append_s = records.empty() ? 0.0 : append_total / static_cast<double>(records.size());
  return out;
}

}  // namespace perfbench
