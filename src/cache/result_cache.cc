#include "cache/result_cache.h"

#include <algorithm>

namespace pcube {

namespace {

size_t EntryListCharge(const std::vector<SearchEntry>& entries) {
  return entries.capacity() * sizeof(SearchEntry);  // paths are inline
}

size_t ResultCharge(const CachedResult& e) {
  size_t c = 160 + e.family.capacity() + e.tids.capacity() * sizeof(TupleId) +
             e.scores.capacity() * sizeof(double) +
             e.cell_stamps.capacity() * sizeof(e.cell_stamps[0]);
  if (e.skyline_state != nullptr) {
    c += EntryListCharge(e.skyline_state->skyline) +
         EntryListCharge(e.skyline_state->b_list) +
         EntryListCharge(e.skyline_state->d_list);
  }
  return c;
}

}  // namespace

ResultCache::ResultCache(size_t capacity_bytes, const DataEpoch* epoch)
    : epoch_(epoch), shards_(new Shard[kShards]) {
  for (size_t i = 0; i < kShards; ++i) {
    shards_[i].slru.set_capacity(capacity_bytes / kShards);
  }
  auto& reg = MetricsRegistry::Default();
  hits_ = reg.GetCounter("pcube_result_cache_hits_total");
  misses_ = reg.GetCounter("pcube_result_cache_misses_total");
  containment_ = reg.GetCounter("pcube_result_cache_containment_total");
  stale_ = reg.GetCounter("pcube_result_cache_stale_total");
  evictions_ = reg.GetCounter("pcube_result_cache_evictions_total");
  inserts_ = reg.GetCounter("pcube_result_cache_inserts_total");
}

ResultCache::Stamps ResultCache::SnapshotStamps(
    const PredicateSet& preds) const {
  Stamps s;
  // Order matters for the empty-predicate case too: read global first so
  // that it is at most as new as the per-cell reads.
  s.global = epoch_->global();
  s.cells.reserve(preds.size());
  for (const Predicate& p : preds.predicates()) {
    CellId cell = AtomicCellId(p.dim, p.value);
    s.cells.emplace_back(cell, epoch_->OfCell(cell));
  }
  return s;
}

bool ResultCache::AnswerFresh(const CachedResult& entry) const {
  if (entry.preds.empty()) return entry.global_stamp == epoch_->global();
  for (const auto& [cell, stamp] : entry.cell_stamps) {
    if (epoch_->OfCell(cell) != stamp) return false;
  }
  return true;
}

std::shared_ptr<const CachedResult> ResultCache::GetFresh(
    uint64_t fp, const std::string& family) {
  Shard& shard = ShardOf(fp);
  std::shared_ptr<const CachedResult> entry;
  {
    MutexLock lock(&shard.mu);
    if (!shard.slru.Lookup(fp, &entry)) return nullptr;
  }
  // Different family behind the same fingerprint: a 64-bit collision. Keep
  // the resident entry (its queries are live too) and report a miss.
  if (entry->family != family) return nullptr;
  if (!AnswerFresh(*entry)) {
    MutexLock lock(&shard.mu);
    size_t bytes_before = shard.slru.bytes();
    if (shard.slru.Erase(fp)) {
      bytes_.fetch_sub(bytes_before - shard.slru.bytes(),
                       std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      stale_->Increment();
    }
    return nullptr;
  }
  return entry;
}

ResultCache::Lookup ResultCache::Find(const QueryRequest& request,
                                      const Dataset& data) {
  Lookup out;
  if (!request.Canonicalizable()) return out;

  const bool topk = request.kind == QueryRequest::Kind::kTopK;
  std::string family = request.CanonicalFamily(request.preds);
  if (auto entry = GetFresh(Fnv1a64(family), family)) {
    // A skyline entry always answers; a top-k entry answers any k' <= k by
    // truncation (a prefix of a larger-k run IS the smaller-k answer), and
    // any k' when it already ran dry. Otherwise fall through — a subset
    // entry might still serve — and let the executed answer replace it.
    if (!topk || entry->k >= request.k || entry->Exhausted()) {
      size_t n = topk ? std::min(request.k, entry->tids.size())
                      : entry->tids.size();
      out.outcome = CacheOutcome::kHit;
      out.tids.assign(entry->tids.begin(), entry->tids.begin() + n);
      if (topk) {
        out.scores.assign(entry->scores.begin(), entry->scores.begin() + n);
      }
      out.plan = entry->plan;
      hits_->Increment();
      return out;
    }
  }

  if (!request.preds.empty() &&
      request.preds.size() <= kMaxContainmentPreds) {
    const auto& ps = request.preds.predicates();
    const uint32_t n = static_cast<uint32_t>(ps.size());
    const uint32_t full = (uint32_t{1} << n) - 1;
    // Proper subsets in decreasing size: the largest cached ancestor gives
    // the cheapest filter/drill-down. Mask 0 (no predicates) is a valid
    // ancestor — an unconstrained cached run answers everything below it.
    std::vector<uint32_t> masks;
    masks.reserve(full);
    for (uint32_t m = 0; m < full; ++m) masks.push_back(m);
    std::sort(masks.begin(), masks.end(), [](uint32_t a, uint32_t b) {
      int pa = __builtin_popcount(a), pb = __builtin_popcount(b);
      return pa != pb ? pa > pb : a < b;
    });
    for (uint32_t mask : masks) {
      PredicateSet sub;
      for (uint32_t i = 0; i < n; ++i) {
        if (mask & (uint32_t{1} << i)) sub.Add(ps[i]);
      }
      std::string fam = request.CanonicalFamily(sub);
      auto entry = GetFresh(Fnv1a64(fam), fam);
      if (entry == nullptr) continue;
      if (topk) {
        // Filter the ancestor's ranked list by the full predicate set.
        // Sound when enough survivors remain (anything outside the list
        // scores no better than its worst member) or the list already held
        // every matching tuple.
        std::vector<TupleId> tids;
        std::vector<double> scores;
        for (size_t i = 0; i < entry->tids.size(); ++i) {
          if (request.preds.Matches(data, entry->tids[i])) {
            tids.push_back(entry->tids[i]);
            scores.push_back(entry->scores[i]);
          }
        }
        if (tids.size() < request.k && !entry->Exhausted()) continue;
        if (tids.size() > request.k) {
          tids.resize(request.k);
          scores.resize(request.k);
        }
        out.outcome = CacheOutcome::kContainment;
        out.tids = std::move(tids);
        out.scores = std::move(scores);
        out.plan = entry->plan;
        containment_->Increment();
        return out;
      }
      // Skyline: a filter pass is NOT sound (dominators that stop
      // qualifying can promote new members); hand the ancestor's engine
      // output to the caller for a Lemma 2 drill-down instead. Needs the
      // tree shape unchanged — the state stores node paths and MBRs.
      if (entry->skyline_state != nullptr &&
          entry->global_stamp == epoch_->global()) {
        out.outcome = CacheOutcome::kContainment;
        out.drill_prev = entry->skyline_state;
        out.plan = entry->plan;
        containment_->Increment();
        return out;
      }
    }
  }

  misses_->Increment();
  return out;
}

void ResultCache::Insert(const QueryRequest& request,
                         const QueryResponse& response,
                         std::shared_ptr<const SkylineOutput> skyline_state,
                         const Stamps& stamps) {
  // Degraded answers must never populate the cache: a boolean-first result
  // computed around corrupt signature pages would outlive the corruption
  // and keep serving after a repair (or mask the damage entirely).
  if (response.degraded || !request.Canonicalizable()) return;

  auto entry = std::make_shared<CachedResult>();
  entry->family = request.CanonicalFamily(request.preds);
  entry->kind = request.kind;
  entry->preds = request.preds;
  entry->k = request.kind == QueryRequest::Kind::kTopK ? request.k : 0;
  entry->tids = response.tids;
  entry->scores = response.scores;
  entry->plan = response.estimate.choice;
  entry->skyline_state = std::move(skyline_state);
  entry->cell_stamps = stamps.cells;
  entry->global_stamp = stamps.global;
  entry->charge = ResultCharge(*entry);

  uint64_t fp = Fnv1a64(entry->family);
  size_t charge = entry->charge;
  Shard& shard = ShardOf(fp);
  MutexLock lock(&shard.mu);
  size_t bytes_before = shard.slru.bytes();
  size_t entries_before = shard.slru.entries();
  size_t evicted = shard.slru.Insert(fp, std::move(entry), charge);
  if (evicted > 0) evictions_->Increment(evicted);
  bytes_.fetch_add(shard.slru.bytes() - bytes_before,
                   std::memory_order_relaxed);
  entries_.fetch_add(shard.slru.entries() - entries_before,
                     std::memory_order_relaxed);
  inserts_->Increment();
}

}  // namespace pcube
