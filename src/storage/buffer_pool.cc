#include "storage/buffer_pool.h"

#include <chrono>
#include <thread>

#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"

namespace pcube {

namespace {
// Per-thread attribution sink shared by every pool (see ScopedThreadStats).
thread_local IoStats* tls_io_stats = nullptr;
}  // namespace

BufferPool::ScopedThreadStats::ScopedThreadStats(IoStats* stats)
    : saved_(tls_io_stats) {
  tls_io_stats = stats;
}

BufferPool::ScopedThreadStats::~ScopedThreadStats() { tls_io_stats = saved_; }

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    pid_ = o.pid_;
    page_ = o.page_;
    o.pool_ = nullptr;
    o.page_ = nullptr;
    o.pid_ = kInvalidPageId;
  }
  return *this;
}

void PageHandle::Release() {
  if (pool_ != nullptr && page_ != nullptr) {
    pool_->Unpin(pid_);
  }
  pool_ = nullptr;
  page_ = nullptr;
  pid_ = kInvalidPageId;
}

BufferPool::BufferPool(PageManager* pm, size_t capacity_pages, IoStats* stats,
                       size_t num_stripes)
    : pm_(pm), stats_(stats) {
  if (capacity_pages < 1) capacity_pages = 1;
  if (num_stripes == 0) num_stripes = capacity_pages >= 256 ? 32 : 1;
  if (num_stripes > capacity_pages) num_stripes = capacity_pages;
  stripes_.reserve(num_stripes);
  for (size_t i = 0; i < num_stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
    // Distribute the capacity; every stripe keeps at least one frame.
    stripes_.back()->capacity =
        std::max<size_t>(1, capacity_pages / num_stripes);
  }
}

void BufferPool::ChargeRead(IoCategory cat) {
  if (stats_ != nullptr) stats_->CountRead(cat);
  if (tls_io_stats != nullptr) tls_io_stats->CountRead(cat);
}

void BufferPool::ChargeWrite(IoCategory cat) {
  if (stats_ != nullptr) stats_->CountWrite(cat);
  if (tls_io_stats != nullptr) tls_io_stats->CountWrite(cat);
}

void BufferPool::Unpin(PageId pid) {
  Stripe& stripe = StripeFor(pid);
  MutexLock lock(&stripe.mu);
  auto it = stripe.frames.find(pid);
  PCUBE_DCHECK(it != stripe.frames.end());
  PCUBE_DCHECK_GT(it->second.pins, 0);
  --it->second.pins;
}

Status BufferPool::EvictOne(Stripe* stripe) {
  // Scan from the LRU tail for the first unpinned frame. If all frames are
  // pinned, grow instead of failing.
  for (auto it = stripe->lru.rbegin(); it != stripe->lru.rend(); ++it) {
    PageId victim = *it;
    auto fit = stripe->frames.find(victim);
    PCUBE_DCHECK(fit != stripe->frames.end());
    if (fit->second.pins > 0 || fit->second.loading) continue;
    if (fit->second.dirty) {
      PCUBE_RETURN_NOT_OK(pm_->Write(victim, fit->second.page));
      ChargeWrite(fit->second.cat);
    }
    stripe->lru.erase(std::next(it).base());
    stripe->frames.erase(fit);
    stripe->evictions.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  return Status::OK();  // everything pinned: grow
}

Status BufferPool::ReadWithRetry(PageId pid, Page* out) {
  // IoError is the one retryable failure class: it means the device call
  // itself failed (possibly transiently), whereas Corruption means the bytes
  // came back wrong and re-reading the same bytes cannot help. Bounded
  // exponential backoff: 100us, 200us, 400us between the up-to-4 attempts.
  // Called from Fetch's unlocked, timed load section, so retry stalls are
  // still attributed to io_wait in traces and load_wait_us.
  static Counter* retries =
      MetricsRegistry::Default().GetCounter("pcube_io_retries_total");
  static Counter* giveups =
      MetricsRegistry::Default().GetCounter("pcube_io_giveups_total");
  constexpr int kMaxAttempts = 4;
  Status st;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      retries->Increment();
      std::this_thread::sleep_for(
          std::chrono::microseconds(100u << (attempt - 1)));
    }
    st = pm_->Read(pid, out);
    if (!st.IsIoError()) return st;
  }
  giveups->Increment();
  return st;
}

Result<PageHandle> BufferPool::Fetch(PageId pid, IoCategory cat, bool load,
                                     bool dirty) {
  Stripe& stripe = StripeFor(pid);
  MutexLock lock(&stripe.mu);
  for (;;) {
    auto it = stripe.frames.find(pid);
    if (it == stripe.frames.end()) break;
    Frame& frame = it->second;
    if (frame.loading) {
      // Another thread is reading this page in. Wait and re-check: if its
      // load fails it removes the frame, and we retry as a fresh miss.
      stripe.cv.Wait(&stripe.mu);
      continue;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    stripe.hits.fetch_add(1, std::memory_order_relaxed);
    stripe.lru.erase(frame.lru_pos);
    stripe.lru.push_front(pid);
    frame.lru_pos = stripe.lru.begin();
    if (dirty) {
      frame.dirty = true;
      frame.cat = cat;
    }
    ++frame.pins;
    return PageHandle(this, pid, &frame.page);
  }
  if (load) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    stripe.misses.fetch_add(1, std::memory_order_relaxed);
  }
  if (stripe.frames.size() >= stripe.capacity) {
    PCUBE_RETURN_NOT_OK(EvictOne(&stripe));
  }
  stripe.lru.push_front(pid);
  Frame& frame = stripe.frames[pid];
  frame.lru_pos = stripe.lru.begin();
  frame.cat = cat;
  if (load) {
    // The physical read happens OUTSIDE the stripe lock so misses on
    // different pages overlap their I/O stalls. While it is in flight the
    // frame is marked `loading`: eviction skips it and same-page fetchers
    // wait on the stripe's condition variable instead of issuing a second
    // read, so the PageManager still never sees two concurrent accesses to
    // one page. &frame stays valid across the unlock because unordered_map
    // never invalidates references on insert, and erase of a loading frame
    // is excluded by the eviction rule.
    frame.loading = true;
    lock.Unlock();
    Timer read_timer;
    Status st = ReadWithRetry(pid, &frame.page);
    double wait = read_timer.ElapsedSeconds();
    stripe.load_wait_us.fetch_add(static_cast<uint64_t>(wait * 1e6),
                                  std::memory_order_relaxed);
    if (Trace* trace = Trace::Current(); trace != nullptr) {
      trace->Record("io_wait", wait);
    }
    lock.Lock();
    frame.loading = false;
    if (!st.ok()) {
      stripe.lru.erase(frame.lru_pos);
      stripe.frames.erase(pid);
      stripe.cv.SignalAll();
      return st;
    }
    ChargeRead(cat);
    stripe.cv.SignalAll();
  } else {
    frame.page.Zero();
  }
  if (dirty) frame.dirty = true;
  ++frame.pins;
  return PageHandle(this, pid, &frame.page);
}

Result<PageHandle> BufferPool::Get(PageId pid, IoCategory cat) {
  return Fetch(pid, cat, /*load=*/true, /*dirty=*/false);
}

Result<PageHandle> BufferPool::GetMutable(PageId pid, IoCategory cat) {
  return Fetch(pid, cat, /*load=*/true, /*dirty=*/true);
}

Result<PageHandle> BufferPool::New(IoCategory cat, PageId* pid) {
  auto alloc = pm_->Allocate();
  if (!alloc.ok()) return alloc.status();
  *pid = *alloc;
  // A fresh page is zero-filled in place: no physical read, no miss charged.
  return Fetch(*pid, cat, /*load=*/false, /*dirty=*/true);
}

Status BufferPool::FlushAll() {
  for (auto& stripe : stripes_) {
    MutexLock lock(&stripe->mu);
    for (auto& [pid, frame] : stripe->frames) {
      if (frame.dirty) {
        PCUBE_RETURN_NOT_OK(pm_->Write(pid, frame.page));
        ChargeWrite(frame.cat);
        frame.dirty = false;
      }
    }
  }
  return Status::OK();
}

uint64_t BufferPool::evictions() const {
  uint64_t n = 0;
  for (const auto& stripe : stripes_) {
    n += stripe->evictions.load(std::memory_order_relaxed);
  }
  return n;
}

double BufferPool::load_wait_seconds() const {
  uint64_t us = 0;
  for (const auto& stripe : stripes_) {
    us += stripe->load_wait_us.load(std::memory_order_relaxed);
  }
  return static_cast<double>(us) * 1e-6;
}

std::vector<BufferPool::StripeStats> BufferPool::PerStripeStats() const {
  std::vector<StripeStats> out;
  out.reserve(stripes_.size());
  for (const auto& stripe : stripes_) {
    StripeStats s;
    s.hits = stripe->hits.load(std::memory_order_relaxed);
    s.misses = stripe->misses.load(std::memory_order_relaxed);
    s.evictions = stripe->evictions.load(std::memory_order_relaxed);
    s.load_wait_seconds =
        static_cast<double>(
            stripe->load_wait_us.load(std::memory_order_relaxed)) *
        1e-6;
    {
      MutexLock lock(&stripe->mu);
      s.frames = stripe->frames.size();
    }
    out.push_back(s);
  }
  return out;
}

void BufferPool::ExportTo(MetricsRegistry* registry,
                          const std::string& prefix) const {
  std::vector<StripeStats> stats = PerStripeStats();
  StripeStats total;
  for (size_t i = 0; i < stats.size(); ++i) {
    const StripeStats& s = stats[i];
    std::string label = "{stripe=\"" + std::to_string(i) + "\"}";
    registry->GetGauge(prefix + "_hits" + label)
        ->Set(static_cast<double>(s.hits));
    registry->GetGauge(prefix + "_misses" + label)
        ->Set(static_cast<double>(s.misses));
    registry->GetGauge(prefix + "_evictions" + label)
        ->Set(static_cast<double>(s.evictions));
    registry->GetGauge(prefix + "_load_wait_seconds" + label)
        ->Set(s.load_wait_seconds);
    registry->GetGauge(prefix + "_frames" + label)
        ->Set(static_cast<double>(s.frames));
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.load_wait_seconds += s.load_wait_seconds;
    total.frames += s.frames;
  }
  registry->GetGauge(prefix + "_hits_total")
      ->Set(static_cast<double>(total.hits));
  registry->GetGauge(prefix + "_misses_total")
      ->Set(static_cast<double>(total.misses));
  registry->GetGauge(prefix + "_evictions_total")
      ->Set(static_cast<double>(total.evictions));
  registry->GetGauge(prefix + "_load_wait_seconds_total")
      ->Set(total.load_wait_seconds);
  registry->GetGauge(prefix + "_frames_total")
      ->Set(static_cast<double>(total.frames));
  registry->GetGauge(prefix + "_stripes")
      ->Set(static_cast<double>(stats.size()));
}

Status BufferPool::Clear() {
  PCUBE_RETURN_NOT_OK(FlushAll());
  for (auto& stripe : stripes_) {
    MutexLock lock(&stripe->mu);
    for ([[maybe_unused]] auto& [pid, frame] : stripe->frames) {
      PCUBE_CHECK_EQ(frame.pins, 0) << "Clear() with outstanding pins";
    }
    stripe->frames.clear();
    stripe->lru.clear();
  }
  return Status::OK();
}

}  // namespace pcube
