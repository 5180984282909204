// Page checksumming.
//
// ChecksumPageManager is a PageManager decorator that keeps a CRC-32 per
// page and verifies it on every physical read, turning silent bit rot into
// a typed Status::Corruption before garbage can reach the B+-trees, the
// signature store, or the branch-and-bound engines.
//
// Checksums live OUTSIDE the page ("sidecar" model) rather than in a page
// trailer: every existing on-disk format in this repo (signature partials,
// catalog chunks, B+-tree nodes) already lays claim to the full 4 KB
// payload, so a trailer would be a breaking format change. The sidecar is a
// small versioned file next to the page file (`<path>.chk`); databases
// written before this layer existed simply have no sidecar and open in
// "adopt" mode — the first read of each page records its checksum, and all
// subsequent reads verify against it.
//
// Sidecar format (little-endian):
//   bytes 0-3   magic  "PCHK"
//   bytes 4-7   u32    version (currently 1)
//   bytes 8-15  u64    page count
//   then        u32 x count, one checksum per page (0 = unknown)
//
// The stored value 0 is a sentinel meaning "no checksum recorded"; a real
// CRC that computes to 0 is folded to 1, costing one bit of detection on a
// 1-in-2^32 value.
//
// Thread-safety matches the PageManager contract: Allocate (which grows the
// checksum table) is single-threaded; Read/Write touch only the slot of the
// page they were handed, and the BufferPool never issues two concurrent
// accesses to the same page, so slot accesses never race.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page_manager.h"

namespace pcube {

class Counter;

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of `n` bytes;
/// the value is the byte-wise table CRC's. Known answer:
/// Crc32("123456789", 9) == 0xCBF43926. On a CPU with PCLMULQDQ and
/// SSE4.1 (checked once, on the first call) it runs Crc32Clmul, elsewhere
/// Crc32Scalar.
uint32_t Crc32(const void* data, size_t n);

/// True when this CPU can run Crc32Clmul.
bool CpuHasPclmul();

/// The two kernels, for the oracle tests and the kernel bench.
/// Crc32Scalar is slicing-by-8 (eight bytes per table step). Crc32Clmul
/// folds 64-byte blocks by carry-less multiplication (PCLMULQDQ) and hands
/// the last 0-15 bytes, or a buffer shorter than 64, to slicing-by-8; it
/// requires CpuHasPclmul().
uint32_t Crc32Scalar(const void* data, size_t n);
#if defined(__x86_64__)
uint32_t Crc32Clmul(const void* data, size_t n);
#endif

/// PageManager decorator verifying a per-page CRC-32 on every read.
class ChecksumPageManager : public PageManager {
 public:
  /// Wraps `inner`. When `sidecar_path` is non-empty, checksums persist to
  /// that file via SyncSidecar(); an existing sidecar is loaded immediately
  /// (a missing one means a legacy database and is not an error). An empty
  /// path keeps checksums in memory only (the MemoryPageManager case).
  explicit ChecksumPageManager(std::unique_ptr<PageManager> inner,
                               std::string sidecar_path = "");

  PageManager* inner() const { return inner_.get(); }

  Result<PageId> Allocate() override;
  Status Read(PageId pid, Page* out) override;
  Status Write(PageId pid, const Page& page) override;
  uint64_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override { return inner_->Sync(); }

  /// Writes the checksum table to the sidecar file. Call after flushing the
  /// page file (Workbench::Save does). No-op without a sidecar path.
  Status SyncSidecar();

  /// Recomputes nothing; reports whether page `pid` has a recorded checksum.
  bool HasChecksum(PageId pid) const {
    return pid < sums_.size() && sums_[pid] != 0;
  }

  /// Total reads whose checksum mismatched (also exported as the
  /// pcube_io_checksum_failures_total counter).
  uint64_t checksum_failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  Status LoadSidecar();

  std::unique_ptr<PageManager> inner_;
  std::string sidecar_path_;
  std::vector<uint32_t> sums_;
  std::atomic<uint64_t> failures_{0};
  Counter* failures_metric_;
};

}  // namespace pcube
