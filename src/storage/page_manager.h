// Backing store for pages. Implementations:
//   MemoryPageManager — pages in RAM; the benchmark default. Combined with a
//     cold BufferPool it yields deterministic, hardware-independent "disk
//     access" counts.
//   FilePageManager  — pages in a real file via pread/pwrite, for users who
//     want actual persistence.
//   LatencyPageManager — decorator that sleeps per physical read, turning
//     the cost model's per-page latency into real blocked time (throughput
//     benchmarks overlap these stalls across worker threads).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace pcube {

/// Abstract page store.
///
/// Thread-safety contract: Allocate/NumPages touch allocator state and are
/// single-threaded (build/maintenance paths only). Read/Write are safe
/// to call concurrently for DIFFERENT pages; the striped BufferPool
/// guarantees it never issues two concurrent accesses to the SAME page
/// (same-page operations serialise on the page's stripe). Under that
/// discipline MemoryPageManager reads touch disjoint Page objects and
/// FilePageManager uses positional pread/pwrite, so the concurrent query
/// path is race-free.
class PageManager {
 public:
  virtual ~PageManager() = default;

  /// Allocates a fresh zeroed page and returns its id.
  virtual Result<PageId> Allocate() = 0;

  /// Reads page `pid` into `*out`.
  virtual Status Read(PageId pid, Page* out) = 0;

  /// Writes `page` as the new content of `pid`.
  virtual Status Write(PageId pid, const Page& page) = 0;

  /// Number of pages allocated so far.
  virtual uint64_t NumPages() const = 0;

  /// Forces previously written pages to stable storage (fdatasync for the
  /// file-backed store). Durability barriers — the WAL's group commit — are
  /// built on this; in-memory stores return OK immediately. Safe to call
  /// concurrently with Read/Write of other pages.
  virtual Status Sync() { return Status::OK(); }

  /// Total allocated bytes (NumPages() * kPageSize).
  uint64_t SizeBytes() const { return NumPages() * kPageSize; }
};

/// Page store kept entirely in RAM.
class MemoryPageManager : public PageManager {
 public:
  Result<PageId> Allocate() override;
  Status Read(PageId pid, Page* out) override;
  Status Write(PageId pid, const Page& page) override;
  uint64_t NumPages() const override { return pages_.size(); }

 private:
  std::vector<std::unique_ptr<Page>> pages_;
};

/// Page store backed by a file on disk.
class FilePageManager : public PageManager {
 public:
  /// Creates (truncating) or opens `path`. When opening an existing file the
  /// page count is recovered from the file size.
  static Result<std::unique_ptr<FilePageManager>> Open(const std::string& path,
                                                       bool truncate);
  ~FilePageManager() override;

  FilePageManager(const FilePageManager&) = delete;
  FilePageManager& operator=(const FilePageManager&) = delete;

  Result<PageId> Allocate() override;
  Status Read(PageId pid, Page* out) override;
  Status Write(PageId pid, const Page& page) override;
  uint64_t NumPages() const override { return num_pages_; }
  Status Sync() override;

 private:
  FilePageManager(int fd, uint64_t num_pages) : fd_(fd), num_pages_(num_pages) {}

  int fd_;
  uint64_t num_pages_;
};

/// Decorator that adds a fixed sleep to every physical Read, simulating the
/// random-access latency of the paper's 2008-era disk (bench_common.h adds
/// the same latency arithmetically; this version actually blocks, so
/// concurrent queries can overlap their stalls). The latency is an atomic:
/// benchmarks build at zero latency and enable it for the measured phase.
class LatencyPageManager : public PageManager {
 public:
  explicit LatencyPageManager(std::unique_ptr<PageManager> inner,
                              double read_latency_us = 0)
      : inner_(std::move(inner)), read_latency_us_(read_latency_us) {}

  void set_read_latency_us(double us) {
    read_latency_us_.store(us, std::memory_order_relaxed);
  }
  double read_latency_us() const {
    return read_latency_us_.load(std::memory_order_relaxed);
  }
  PageManager* inner() const { return inner_.get(); }

  Result<PageId> Allocate() override { return inner_->Allocate(); }
  Status Read(PageId pid, Page* out) override;
  Status Write(PageId pid, const Page& page) override {
    return inner_->Write(pid, page);
  }
  uint64_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override { return inner_->Sync(); }

 private:
  std::unique_ptr<PageManager> inner_;
  std::atomic<double> read_latency_us_;
};

}  // namespace pcube
