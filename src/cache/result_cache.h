// L1 of the query cache: a semantic result cache over the unified
// QueryRequest. Entries are keyed by the request's *family* fingerprint
// (request.h: canonical form with top-k's k stripped), so one entry serves
//   * exact repeats — same canonical query;
//   * truncation   — a cached top-k with entry.k >= k' (or one that
//     exhausted all matching tuples) answers k' by taking a prefix;
//   * containment  — a query for predicates P' ⊇ P can reuse the entry
//     cached for P: a top-k list is filtered by the extra predicates
//     (sound when enough survivors remain or the list was exhaustive), and
//     a skyline entry's full engine output seeds a Lemma 2 drill-down
//     (incremental.h) instead of a root restart. Note a skyline canNOT be
//     answered by filtering alone — a point outside the subset relation's
//     skyline may enter the superset-predicate skyline when its dominators
//     stop qualifying.
//
// Freshness is epoch-based (epoch.h): entries carry the epoch of each
// predicate's atomic cell (the global epoch when predicate-free) read
// BEFORE execution, and are compared at lookup; mismatches evict lazily.
// Reusing cached *engine state* (a SkylineOutput with node paths and MBRs,
// the drill-down seed) additionally requires the global epoch to be
// unchanged — any tree mutation may relocate nodes, invalidating paths even
// where answers survive. Degraded responses are never inserted: a
// boolean-first answer computed around corrupt signature pages would
// outlive the corruption.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/epoch.h"
#include "cache/slru.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "cube/relation.h"
#include "query/request.h"

namespace pcube {

/// One cached answer (immutable once published; shared by snapshot).
struct CachedResult {
  std::string family;  ///< canonical family string (hash-collision check)
  QueryRequest::Kind kind = QueryRequest::Kind::kSkyline;
  PredicateSet preds;
  size_t k = 0;  ///< top-k: the k the entry was computed with

  std::vector<TupleId> tids;    ///< skyline: ascending; top-k: rank order
  std::vector<double> scores;   ///< top-k only, aligned with tids
  PlanChoice plan = PlanChoice::kSignature;

  /// Full skyline engine output, when the entry was produced by the
  /// signature engine: seeds containment drill-downs. Null for top-k and
  /// boolean-first entries.
  std::shared_ptr<const SkylineOutput> skyline_state;

  /// Epoch stamps read before the producing execution.
  std::vector<std::pair<CellId, uint64_t>> cell_stamps;
  /// Validates the answer when preds is empty, and skyline_state always.
  uint64_t global_stamp = 0;

  size_t charge = 0;

  /// True when the run returned every matching tuple (top-k that ran dry):
  /// such a list answers any k and survives any predicate filtering.
  bool Exhausted() const { return tids.size() < k; }
};

/// Thread-safe sharded SLRU result cache.
class ResultCache {
 public:
  ResultCache(size_t capacity_bytes, const DataEpoch* epoch);

  /// Epoch stamps for a request's footprint — its predicates' atomic cells
  /// plus the global epoch. MUST be read before the execution whose result
  /// will be inserted, so concurrent updates can only make the entry look
  /// stale, never wrongly fresh.
  struct Stamps {
    std::vector<std::pair<CellId, uint64_t>> cells;
    uint64_t global = 0;
  };
  Stamps SnapshotStamps(const PredicateSet& preds) const;

  /// Outcome of a lookup. Exactly one of these shapes:
  ///   * kMiss — nothing usable.
  ///   * kHit — `tids`/`scores` are the final answer.
  ///   * kContainment, top-k — `tids`/`scores` are the final answer
  ///     (filtered + truncated).
  ///   * kContainment, skyline — `drill_prev` holds the ancestor's engine
  ///     output; the caller must run the Lemma 2 drill-down from it.
  struct Lookup {
    CacheOutcome outcome = CacheOutcome::kMiss;
    std::vector<TupleId> tids;
    std::vector<double> scores;
    PlanChoice plan = PlanChoice::kSignature;
    std::shared_ptr<const SkylineOutput> drill_prev;
  };

  /// Probes the exact family, then its predicate subsets in decreasing
  /// size. `data` backs the containment filter pass.
  Lookup Find(const QueryRequest& request, const Dataset& data);

  /// Publishes an executed answer. No-op for degraded responses and
  /// non-canonicalizable requests. `skyline_state` (optional) is the
  /// signature engine's full skyline output, kept to seed drill-downs.
  /// `stamps` must be the SnapshotStamps taken before the execution.
  void Insert(const QueryRequest& request, const QueryResponse& response,
              std::shared_ptr<const SkylineOutput> skyline_state,
              const Stamps& stamps);

  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }
  const DataEpoch* epoch() const { return epoch_; }

 private:
  static constexpr size_t kShards = 8;
  /// Containment probing enumerates proper predicate subsets (2^n - 1
  /// probes); above this many predicates it is skipped.
  static constexpr size_t kMaxContainmentPreds = 6;

  /// Lock order: shard mutexes are leaves and never nested — containment
  /// probing touches one shard at a time, releasing before the next probe.
  struct Shard {
    Mutex mu;
    SlruShard<uint64_t, std::shared_ptr<const CachedResult>> slru
        GUARDED_BY(mu);
  };
  Shard& ShardOf(uint64_t fp) { return shards_[fp >> 61 & (kShards - 1)]; }

  /// Fetches a fresh (answer-level) entry for a family fingerprint, lazily
  /// evicting stale ones. Collision-checked against `family`.
  std::shared_ptr<const CachedResult> GetFresh(uint64_t fp,
                                               const std::string& family);
  bool AnswerFresh(const CachedResult& entry) const;

  const DataEpoch* epoch_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> entries_{0};

  Counter* hits_;
  Counter* misses_;
  Counter* containment_;
  Counter* stale_;
  Counter* evictions_;
  Counter* inserts_;
};

}  // namespace pcube
