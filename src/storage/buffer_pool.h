// LRU page cache over a PageManager. A cache miss performs a physical
// PageManager::Read and is charged to the caller-supplied IoCategory; a hit
// is free. Benchmarks start each query with a cleared ("cold") pool so the
// reported disk-access counts match the paper's cold-cache methodology.
//
// Frames are handed out as RAII PageHandles that pin the frame: a pinned
// frame is never evicted, so a handle's Page* stays valid and mutations are
// never lost. If every frame is pinned the pool grows past its capacity
// rather than failing (the standard steal-free policy).
//
// Thread-safety (concurrent query execution): the pool is internally
// partitioned into stripes, each owning a mutex, a frame map and an LRU
// list; a page always maps to the same stripe, so Get/GetMutable/Unpin on
// different pages mostly proceed in parallel while operations on the same
// page serialise. Hit/miss counters are atomics and IoStats charging is
// race-free (see io_stats.h). This makes the READ path — Get() on pages
// written by a happens-before build phase — safe from any number of threads,
// which is what concurrent TopKEngine/SkylineEngine instances need. The
// MUTATION entry points (New, FlushAll, Clear) are NOT thread-safe — New
// calls PageManager::Allocate; build and maintenance remain single-threaded
// by contract (DESIGN.md "Concurrency model").
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/io_stats.h"
#include "common/mutex.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/page_manager.h"

namespace pcube {

class BufferPool;
class MetricsRegistry;

/// Pinning, move-only reference to a cached page frame.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, PageId pid, Page* page)
      : pool_(pool), pid_(pid), page_(page) {}
  PageHandle(PageHandle&& o) noexcept { *this = std::move(o); }
  PageHandle& operator=(PageHandle&& o) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle() { Release(); }

  Page* get() const { return page_; }
  Page& operator*() const { return *page_; }
  Page* operator->() const { return page_; }
  PageId pid() const { return pid_; }
  bool valid() const { return page_ != nullptr; }

  /// Unpins early (also done by the destructor).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  PageId pid_ = kInvalidPageId;
  Page* page_ = nullptr;
};

/// Write-back LRU buffer pool with pinning and lock striping.
class BufferPool {
 public:
  /// `capacity_pages` bounds the number of cached frames (>= 1) except when
  /// pins force temporary growth. `num_stripes` controls lock striping:
  /// 0 picks automatically — a single stripe for small pools (preserving the
  /// strict global-LRU eviction order the paper experiments and unit tests
  /// rely on) and 32 stripes for pools of >= 256 pages, where per-stripe
  /// LRU is indistinguishable in practice and concurrency matters.
  BufferPool(PageManager* pm, size_t capacity_pages, IoStats* stats,
             size_t num_stripes = 0);

  /// Registers `stats` as this thread's attribution sink: physical reads and
  /// write-backs performed by the calling thread on ANY BufferPool are also
  /// charged to it (on top of the pool's shared IoStats). Workbench::Run
  /// wraps each query in one of these to report per-query I/O.
  class ScopedThreadStats {
   public:
    explicit ScopedThreadStats(IoStats* stats);
    ~ScopedThreadStats();
    ScopedThreadStats(const ScopedThreadStats&) = delete;
    ScopedThreadStats& operator=(const ScopedThreadStats&) = delete;

   private:
    IoStats* saved_;
  };

  /// Fetches `pid` for reading; counts a physical read in `cat` on miss.
  /// Safe to call concurrently with other Get/GetMutable/Unpin.
  Result<PageHandle> Get(PageId pid, IoCategory cat);

  /// Fetches `pid` for modification; the frame is marked dirty and written
  /// back on eviction or FlushAll(). The write-back is charged to `cat`.
  Result<PageHandle> GetMutable(PageId pid, IoCategory cat);

  /// Allocates a new page and returns a dirty frame for it. Single-threaded
  /// (calls PageManager::Allocate).
  Result<PageHandle> New(IoCategory cat, PageId* pid);

  /// Writes back all dirty frames (keeps them cached). Single-threaded.
  Status FlushAll();

  /// Writes back dirty frames and empties the cache (a "cold" restart).
  /// Requires no outstanding pins. Single-threaded.
  Status Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Frames dropped to make room (write-backs of dirty victims included).
  uint64_t evictions() const;
  /// Total wall time threads spent blocked in physical page reads. With a
  /// LatencyPageManager this is the simulated disk time the workload paid;
  /// it also lands in the current query's trace as `io_wait` spans.
  double load_wait_seconds() const;
  size_t num_stripes() const { return stripes_.size(); }
  PageManager* page_manager() const { return pm_; }
  IoStats* stats() const { return stats_; }

  /// Point-in-time counters of one lock stripe.
  struct StripeStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    double load_wait_seconds = 0;
    size_t frames = 0;  ///< resident frames right now
  };
  std::vector<StripeStats> PerStripeStats() const;

  /// Publishes pool gauges into `registry` under `prefix`
  /// (`<prefix>_hits{stripe="0"}`, ... plus `<prefix>_*_total` sums).
  void ExportTo(MetricsRegistry* registry, const std::string& prefix) const;

 private:
  friend class PageHandle;

  struct Frame {
    Page page;
    bool dirty = false;
    // True while the frame's physical read is in flight outside the stripe
    // lock; loading frames are never evicted and same-page fetchers wait on
    // Stripe::cv until the flag clears.
    bool loading = false;
    int pins = 0;
    IoCategory cat = IoCategory::kHeapFile;
    std::list<PageId>::iterator lru_pos;
  };

  /// One lock-striping partition: pages hash onto exactly one stripe, which
  /// owns their frames, their LRU order and a share of the capacity.
  /// Lock order: stripe mutexes are leaves — no other pcube lock is ever
  /// acquired while one is held (the physical read in Fetch runs unlocked).
  struct Stripe {
    Mutex mu;
    CondVar cv;  // signalled when a loading frame settles
    std::unordered_map<PageId, Frame> frames GUARDED_BY(mu);
    std::list<PageId> lru GUARDED_BY(mu);  // front = most recent
    size_t capacity GUARDED_BY(mu) = 1;
    // Per-stripe observability counters (atomics so PerStripeStats and the
    // metrics export read them without taking every stripe lock).
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> load_wait_us{0};
  };

  Stripe& StripeFor(PageId pid) {
    return *stripes_[static_cast<size_t>(pid) % stripes_.size()];
  }

  /// Hit-or-load; the physical read runs outside the stripe lock so misses
  /// on different pages overlap. Returns a pinned handle.
  Result<PageHandle> Fetch(PageId pid, IoCategory cat, bool load, bool dirty);
  /// PageManager::Read with bounded retry + exponential backoff on transient
  /// IoError (the only retryable class — Corruption never heals by
  /// re-reading). Attempts are counted in the pcube_io_retries_total /
  /// pcube_io_giveups_total metrics.
  Status ReadWithRetry(PageId pid, Page* out);
  /// Evicts the LRU unpinned frame of `stripe` (caller holds its mutex); a
  /// fully pinned stripe grows instead of failing.
  Status EvictOne(Stripe* stripe) REQUIRES(stripe->mu);
  void Unpin(PageId pid);
  void ChargeRead(IoCategory cat);
  void ChargeWrite(IoCategory cat);

  PageManager* pm_;
  IoStats* stats_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace pcube
