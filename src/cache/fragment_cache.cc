#include "cache/fragment_cache.h"

#include "common/bit_util.h"

namespace pcube {

namespace {
size_t FragmentCharge(const CachedFragment& f) {
  return 96 + f.words.capacity() * sizeof(uint64_t) +
         f.nodes.capacity() * sizeof(CachedFragment::NodeRef);
}
}  // namespace

std::span<const uint64_t> CachedFragment::node_words(size_t i) const {
  const NodeRef& ref = nodes[i];
  return {words.data() + ref.word_offset, bit_util::Words64(ref.num_bits)};
}

BitVector CachedFragment::NodeBits(size_t i) const {
  return BitVector(nodes[i].num_bits, node_words(i));
}

FragmentCache::FragmentCache(size_t capacity_bytes, const DataEpoch* epoch)
    : epoch_(epoch), shards_(new Shard[kShards]) {
  for (size_t i = 0; i < kShards; ++i) {
    shards_[i].slru.set_capacity(capacity_bytes / kShards);
  }
  auto& reg = MetricsRegistry::Default();
  hits_ = reg.GetCounter("pcube_fragment_cache_hits_total");
  misses_ = reg.GetCounter("pcube_fragment_cache_misses_total");
  stale_ = reg.GetCounter("pcube_fragment_cache_stale_total");
  evictions_ = reg.GetCounter("pcube_fragment_cache_evictions_total");
}

std::shared_ptr<const CachedFragment> FragmentCache::Lookup(CellId cell,
                                                            uint64_t sid) {
  Key key{cell, sid};
  Shard& shard = ShardOf(key);
  std::shared_ptr<const CachedFragment> value;
  {
    MutexLock lock(&shard.mu);
    if (!shard.slru.Lookup(key, &value)) {
      misses_->Increment();
      return nullptr;
    }
    if (value->epoch != epoch_->OfCell(cell)) {
      // Lazy invalidation: the cell changed since this decode was cached.
      size_t before = shard.slru.bytes();
      shard.slru.Erase(key);
      bytes_.fetch_sub(before - shard.slru.bytes(),
                       std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      stale_->Increment();
      return nullptr;
    }
  }
  hits_->Increment();
  return value;
}

void FragmentCache::Insert(CellId cell, uint64_t sid, bool present,
                           std::vector<std::pair<uint64_t, BitVector>> nodes,
                           uint64_t epoch) {
  auto entry = std::make_shared<CachedFragment>();
  entry->present = present;
  entry->epoch = epoch;
  size_t total_words = 0;
  for (const auto& [sid, bits] : nodes) total_words += bits.words().size();
  entry->words.reserve(total_words);
  entry->nodes.reserve(nodes.size());
  for (const auto& [sid, bits] : nodes) {
    CachedFragment::NodeRef ref;
    ref.sid = sid;
    ref.word_offset = static_cast<uint32_t>(entry->words.size());
    ref.num_bits = static_cast<uint32_t>(bits.size());
    entry->words.insert(entry->words.end(), bits.words().begin(),
                        bits.words().end());
    entry->nodes.push_back(std::move(ref));
  }
  entry->charge = FragmentCharge(*entry);
  size_t charge = entry->charge;

  Key key{cell, sid};
  Shard& shard = ShardOf(key);
  MutexLock lock(&shard.mu);
  size_t bytes_before = shard.slru.bytes();
  size_t entries_before = shard.slru.entries();
  size_t evicted = shard.slru.Insert(key, std::move(entry), charge);
  if (evicted > 0) evictions_->Increment(evicted);
  bytes_.fetch_add(shard.slru.bytes() - bytes_before,
                   std::memory_order_relaxed);
  entries_.fetch_add(shard.slru.entries() - entries_before,
                     std::memory_order_relaxed);
}

}  // namespace pcube
