// L2 of the query cache: decoded signature bit-tree nodes, keyed by
// (cell, partial-signature SID) and shared across queries. The BufferPool
// below already caches raw signature *pages*; this layer caches the result
// of running the bitmap codec over them, so concurrent batch workers
// probing the same hot cells decode each partial once instead of once per
// query ("decode-once, probe-many"). Entries are immutable snapshots
// handed out by shared_ptr — readers never block each other beyond one
// shard mutex, and invalidation is epoch-based and lazy (see epoch.h).
//
// Negative entries (the store has no partial for this SID) are cached too:
// the cursor's probing rule touches many non-existent SIDs per query, and
// each would otherwise cost a store lookup.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bitmap/bitvector.h"
#include "cache/epoch.h"
#include "cache/slru.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/simd/aligned.h"

namespace pcube {

/// One cached decode: the nodes this partial contributed to a cursor,
/// in the order the codec produced them, with every node's bit words packed
/// into one contiguous 32-byte-aligned block (DESIGN.md §12). Each node's
/// slice starts on a 4-word (32-byte) boundary, so replaying a hit hands
/// the kernel layer aligned operands from one allocation instead of one
/// heap vector per node. `present == false` caches a NotFound (the block is
/// then empty).
struct CachedFragment {
  /// Locates one node's bits inside `words`.
  struct NodeRef {
    uint64_t sid = 0;          ///< the node's SID (rtree/path.h)
    uint32_t word_offset = 0;  ///< into `words`; always a multiple of 4
    uint32_t num_bits = 0;
  };

  bool present = false;
  std::vector<NodeRef> nodes;
  simd::AlignedVector<uint64_t> words;  ///< packed node payloads
  uint64_t epoch = 0;  ///< DataEpoch::OfCell at fill time
  size_t charge = 0;   ///< approximate bytes, for the SLRU budget

  size_t num_nodes() const { return nodes.size(); }
  uint64_t sid(size_t i) const { return nodes[i].sid; }
  /// The packed words of node i (exactly Words64(num_bits) of them; the
  /// alignment padding after them is not part of the vector).
  std::span<const uint64_t> node_words(size_t i) const;
  /// Materialises node i as a standalone BitVector (copies the slice).
  BitVector NodeBits(size_t i) const;
};

/// Sharded SLRU cache of decoded partial signatures.
/// Thread-safe; all methods may be called concurrently.
class FragmentCache {
 public:
  /// `capacity_bytes` is the total budget across shards; `epoch` must
  /// outlive the cache.
  FragmentCache(size_t capacity_bytes, const DataEpoch* epoch);

  /// Returns the cached decode of (cell, sid) if present AND still at the
  /// cell's current epoch; stale entries are erased (counted as stale, not
  /// miss) and nullptr returned.
  std::shared_ptr<const CachedFragment> Lookup(CellId cell, uint64_t sid);

  /// Caches a decode stamped with `epoch` (read BEFORE the store load, so
  /// a concurrent update can only make the entry look stale, never fresh).
  void Insert(CellId cell, uint64_t sid, bool present,
              std::vector<std::pair<uint64_t, BitVector>> nodes,
              uint64_t epoch);

  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t entries() const { return entries_.load(std::memory_order_relaxed); }

  /// The epoch registry entries are validated against (fill paths read the
  /// stamp through this BEFORE loading from the store).
  const DataEpoch* epoch() const { return epoch_; }

 private:
  struct Key {
    CellId cell;
    uint64_t sid;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t x = (k.cell ^ (k.sid * 0x9e3779b97f4a7c15ULL)) + k.sid;
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 33;
      return static_cast<size_t>(x);
    }
  };
  static constexpr size_t kShards = 16;
  /// Lock order: shard mutexes are leaves and never nested (one shard per
  /// Lookup/Insert; the codec decode happens before the lock is taken).
  struct Shard {
    Mutex mu;
    SlruShard<Key, std::shared_ptr<const CachedFragment>, KeyHash> slru
        GUARDED_BY(mu);
  };
  Shard& ShardOf(const Key& k) {
    return shards_[KeyHash{}(k) >> 57 & (kShards - 1)];
  }

  const DataEpoch* epoch_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> entries_{0};

  Counter* hits_;
  Counter* misses_;
  Counter* stale_;
  Counter* evictions_;
};

}  // namespace pcube
