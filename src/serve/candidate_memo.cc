#include "serve/candidate_memo.h"

#include <bit>
#include <chrono>

#include "cache/cache.h"
#include "obs/obs.h"

namespace loam::serve {

using warehouse::Query;

namespace {

constexpr std::uint64_t kMemoSalt = 0xca9d1da7eull;

std::uint64_t word(int v) { return static_cast<std::uint64_t>(v); }

bool same_predicates(const Query& a, const Query& b) {
  if (a.predicates.size() != b.predicates.size()) return false;
  for (std::size_t i = 0; i < a.predicates.size(); ++i) {
    const warehouse::Predicate& p = a.predicates[i];
    const warehouse::Predicate& q = b.predicates[i];
    if (p.table_id != q.table_id || p.column != q.column || p.fns != q.fns ||
        std::bit_cast<std::uint64_t>(p.selectivity) !=
            std::bit_cast<std::uint64_t>(q.selectivity)) {
      return false;
    }
  }
  return true;
}

bool same_joins(const Query& a, const Query& b) {
  if (a.joins.size() != b.joins.size()) return false;
  for (std::size_t i = 0; i < a.joins.size(); ++i) {
    const warehouse::JoinEdge& x = a.joins[i];
    const warehouse::JoinEdge& y = b.joins[i];
    if (x.left_table != y.left_table || x.right_table != y.right_table ||
        x.left_column != y.left_column || x.right_column != y.right_column ||
        x.form != y.form) {
      return false;
    }
  }
  return true;
}

bool same_aggregation(const Query& a, const Query& b) {
  if (a.aggregation.has_value() != b.aggregation.has_value()) return false;
  if (!a.aggregation.has_value()) return true;
  const warehouse::Aggregation& x = *a.aggregation;
  const warehouse::Aggregation& y = *b.aggregation;
  return x.fn == y.fn && x.table_id == y.table_id && x.column == y.column &&
         x.group_by == y.group_by;
}

}  // namespace

CandidateMemo::CandidateMemo(const std::string& scope,
                             const core::PlanExplorer* explorer,
                             const warehouse::Catalog* catalog)
    : explorer_(explorer), catalog_(catalog), entries_(kCapacity, 1) {
  obs::Registry& reg = obs::Registry::instance();
  const std::string p = "loam.cache." + scope + ".cand";
  c_hits_ = reg.counter(p + ".hits");
  c_misses_ = reg.counter(p + ".misses");
  c_inserts_ = reg.counter(p + ".inserts");
  c_evictions_ = reg.counter(p + ".evictions");
  g_size_ = reg.gauge(p + ".size");
}

std::uint64_t CandidateMemo::fingerprint(const Query& query,
                                         std::uint64_t catalog_generation) {
  using cache::combine;
  std::uint64_t h = combine(kMemoSalt, catalog_generation);
  h = combine(h, query.tables.size());
  for (const int t : query.tables) h = combine(h, word(t));
  h = combine(h, query.joins.size());
  for (const warehouse::JoinEdge& j : query.joins) {
    h = combine(h, word(j.left_table));
    h = combine(h, word(j.right_table));
    h = combine(h, word(j.left_column));
    h = combine(h, word(j.right_column));
    h = combine(h, static_cast<std::uint64_t>(j.form));
  }
  h = combine(h, query.predicates.size());
  for (const warehouse::Predicate& p : query.predicates) {
    h = combine(h, word(p.table_id));
    h = combine(h, word(p.column));
    h = combine(h, std::bit_cast<std::uint64_t>(p.selectivity));
    h = combine(h, p.fns.size());
    for (const warehouse::FilterFn f : p.fns) {
      h = combine(h, static_cast<std::uint64_t>(f));
    }
  }
  if (query.aggregation.has_value()) {
    const warehouse::Aggregation& agg = *query.aggregation;
    h = combine(h, static_cast<std::uint64_t>(agg.fn) + 0xa000);
    h = combine(h, word(agg.table_id));
    h = combine(h, word(agg.column));
    h = combine(h, agg.group_by.size());
    for (const auto& [t, c] : agg.group_by) {
      h = combine(h, word(t));
      h = combine(h, word(c));
    }
  }
  return h;
}

bool CandidateMemo::same_plan_inputs(const Query& a, const Query& b) {
  return a.tables == b.tables && same_joins(a, b) && same_predicates(a, b) &&
         same_aggregation(a, b);
}

core::CandidateGeneration CandidateMemo::explore(const Query& query) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t generation = catalog_->generation();
  const std::uint64_t fp = fingerprint(query, generation);
  if (const std::optional<std::shared_ptr<const Entry>> hit = entries_.get(fp)) {
    const Entry& e = **hit;
    if (e.catalog_generation == generation && same_plan_inputs(e.query, query)) {
      core::CandidateGeneration out = e.generation;
      out.generation_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
      hits_.fetch_add(1, std::memory_order_relaxed);
      c_hits_->add();
      return out;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  c_misses_->add();
  core::CandidateGeneration out = explorer_->explore(query);
  const std::uint64_t mark = fp | 1;
  std::uint64_t& seen = sightings_[fp & (kSightingSlots - 1)];
  if (seen != mark) {
    seen = mark;  // first sighting: remember it, store nothing
    return out;
  }
  using Lru = cache::ShardedLru<std::shared_ptr<const Entry>>;
  const Lru::PutOutcome put = entries_.put(
      fp, std::make_shared<const Entry>(Entry{query, generation, out}));
  if (put == Lru::PutOutcome::kInserted ||
      put == Lru::PutOutcome::kInsertedEvicting) {
    c_inserts_->add();
  }
  if (put == Lru::PutOutcome::kInsertedEvicting) c_evictions_->add();
  if (obs::metrics_on()) g_size_->set(static_cast<double>(entries_.size()));
  return out;
}

cache::CacheStats CandidateMemo::stats() const {
  cache::CacheStats s = entries_.stats();
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace loam::serve
