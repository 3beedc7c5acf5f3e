// Per-shard memo of explored candidate sets — the front of a serve shard's
// model path.
//
// Recurring templates dominate production workloads (paper Fig. 15), so a
// shard keeps being asked to explore queries it has explored before, and
// exploration is most of a warm request's service time. CandidateMemo puts a
// bounded LRU of finished CandidateGenerations in front of
// PlanExplorer::explore:
//
//   * key — a 64-bit fingerprint of every query field the explorer reads
//     (tables, joins, predicates with the exact bits of their selectivity,
//     aggregation with its group-by) combined with Catalog::generation(),
//     which every catalog mutation redraws;
//   * hit — served only after an exact comparison of those fields and of the
//     generation against the entry's own copies, so a fingerprint collision
//     degrades to a miss, never to a wrong candidate set; the copy out shares
//     the stored plans' nodes (warehouse::Plan is copy-on-write);
//   * admission — a query is stored on its second sighting, tracked in a
//     fixed array of fingerprints, so a one-off query costs one hash and one
//     lookup and stores nothing;
//   * invalidation — structural: after a catalog mutation every lookup
//     carries a new generation and misses; old entries age out of the LRU.
//
// A hit returns exactly what explore() would return for the query (the
// explorer is a deterministic function of the query and the catalog) except
// generation_seconds, which reports the lookup time actually spent.
#ifndef LOAM_SERVE_CANDIDATE_MEMO_H_
#define LOAM_SERVE_CANDIDATE_MEMO_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cache/lru.h"
#include "core/explorer.h"
#include "warehouse/catalog.h"
#include "warehouse/query.h"

namespace loam::obs {
class Counter;
class Gauge;
}  // namespace loam::obs

namespace loam::serve {

class CandidateMemo {
 public:
  // Entries per shard: well above the recurring query pools one shard sees
  // (about 150 queries per shard in a 300-query pool over 2 shards).
  static constexpr std::size_t kCapacity = 512;
  // Second-sighting admission slots (a power of two).
  static constexpr std::size_t kSightingSlots = 4096;

  // `scope` names the obs series loam.cache.<scope>.cand.*. The explorer and
  // the catalog it plans against are borrowed and must outlive the memo.
  CandidateMemo(const std::string& scope, const core::PlanExplorer* explorer,
                const warehouse::Catalog* catalog);

  CandidateMemo(const CandidateMemo&) = delete;
  CandidateMemo& operator=(const CandidateMemo&) = delete;

  // explorer->explore(query) through the memo. One caller at a time (the
  // shard's batcher); stats() and size() may be read concurrently. A query
  // the explorer throws on is never stored.
  core::CandidateGeneration explore(const warehouse::Query& query);

  // The key: every field explore() reads, and the catalog generation.
  static std::uint64_t fingerprint(const warehouse::Query& query,
                                   std::uint64_t catalog_generation);
  // Exact equality of the fields fingerprint() covers (selectivities by
  // bits).
  static bool same_plan_inputs(const warehouse::Query& a,
                               const warehouse::Query& b);

  // hits/misses count explore() calls; inserts/updates/evictions the LRU.
  cache::CacheStats stats() const;
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    warehouse::Query query;
    std::uint64_t catalog_generation = 0;
    core::CandidateGeneration generation;
  };

  const core::PlanExplorer* explorer_;
  const warehouse::Catalog* catalog_;
  cache::ShardedLru<std::shared_ptr<const Entry>> entries_;
  // Fingerprint (low bit forced on, so the zero fill is never a sighting)
  // last seen in each slot; batcher-thread state.
  std::array<std::uint64_t, kSightingSlots> sightings_{};
  std::atomic<std::uint64_t> hits_{0}, misses_{0};

  obs::Counter* c_hits_;
  obs::Counter* c_misses_;
  obs::Counter* c_inserts_;
  obs::Counter* c_evictions_;
  obs::Gauge* g_size_;
};

}  // namespace loam::serve

#endif  // LOAM_SERVE_CANDIDATE_MEMO_H_
