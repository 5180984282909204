#include "storage/checksum.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "common/metrics.h"

namespace pcube {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table, and
// kTables[s][b] is the CRC register after byte b is followed by s zero bytes,
// so eight table lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t s = 1; s < t.size(); ++s) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
    }
  }
  return t;
}

/// Little-endian 32-bit load, whatever the host byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

// 0 is the "no checksum recorded" sentinel in the table, so a genuine CRC
// of 0 folds to 1.
uint32_t Fold(uint32_t crc) { return crc == 0 ? 1u : crc; }

constexpr char kSidecarMagic[4] = {'P', 'C', 'H', 'K'};
constexpr uint32_t kSidecarVersion = 1;

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  static const CrcTables kT = MakeCrcTables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kT[7][lo & 0xFF] ^ kT[6][(lo >> 8) & 0xFF] ^
        kT[5][(lo >> 16) & 0xFF] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFF] ^
        kT[2][(hi >> 8) & 0xFF] ^ kT[1][(hi >> 16) & 0xFF] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kT[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

ChecksumPageManager::ChecksumPageManager(std::unique_ptr<PageManager> inner,
                                         std::string sidecar_path)
    : inner_(std::move(inner)),
      sidecar_path_(std::move(sidecar_path)),
      failures_metric_(MetricsRegistry::Default().GetCounter(
          "pcube_io_checksum_failures_total")) {
  sums_.assign(inner_->NumPages(), 0);
  if (!sidecar_path_.empty()) {
    // A missing or stale sidecar is legacy data, not an error: those pages
    // stay at "unknown" and adopt their checksum on first read.
    LoadSidecar().IgnoreError();
  }
}

Result<PageId> ChecksumPageManager::Allocate() {
  auto pid = inner_->Allocate();
  if (!pid.ok()) return pid;
  if (*pid >= sums_.size()) sums_.resize(*pid + 1, 0);
  // Fresh pages are zeroed by contract; record the zero-page CRC so even a
  // never-written page is verified from its first read.
  static const uint32_t kZeroPageCrc = [] {
    Page zero;
    zero.Zero();
    return Fold(Crc32(zero.data(), kPageSize));
  }();
  sums_[*pid] = kZeroPageCrc;
  return pid;
}

Status ChecksumPageManager::Read(PageId pid, Page* out) {
  PCUBE_RETURN_NOT_OK(inner_->Read(pid, out));
  uint32_t computed = Fold(Crc32(out->data(), kPageSize));
  uint32_t stored = pid < sums_.size() ? sums_[pid] : 0;
  if (stored == 0) {
    // Legacy page with no recorded checksum: adopt the current content.
    if (pid >= sums_.size()) sums_.resize(pid + 1, 0);
    sums_[pid] = computed;
    return Status::OK();
  }
  if (stored != computed) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    failures_metric_->Increment();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "checksum mismatch on page %llu: stored %08x computed %08x",
                  static_cast<unsigned long long>(pid), stored, computed);
    return Status::Corruption(buf);
  }
  return Status::OK();
}

Status ChecksumPageManager::Write(PageId pid, const Page& page) {
  PCUBE_RETURN_NOT_OK(inner_->Write(pid, page));
  if (pid >= sums_.size()) sums_.resize(pid + 1, 0);
  sums_[pid] = Fold(Crc32(page.data(), kPageSize));
  return Status::OK();
}

Status ChecksumPageManager::LoadSidecar() {
  std::FILE* f = std::fopen(sidecar_path_.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no sidecar: " + sidecar_path_);
  char magic[4];
  uint32_t version = 0;
  uint64_t count = 0;
  bool header_ok = std::fread(magic, 1, 4, f) == 4 &&
                   std::fread(&version, sizeof(version), 1, f) == 1 &&
                   std::fread(&count, sizeof(count), 1, f) == 1;
  if (!header_ok || std::memcmp(magic, kSidecarMagic, 4) != 0 ||
      version != kSidecarVersion) {
    std::fclose(f);
    return Status::Corruption("bad sidecar header: " + sidecar_path_);
  }
  // Only adopt checksums for pages the file actually has; a sidecar from
  // before the file grew leaves the new pages at "unknown".
  uint64_t usable = std::min<uint64_t>(count, sums_.size());
  if (usable > 0 &&
      std::fread(sums_.data(), sizeof(uint32_t), usable, f) != usable) {
    std::fclose(f);
    sums_.assign(inner_->NumPages(), 0);
    return Status::Corruption("truncated sidecar: " + sidecar_path_);
  }
  std::fclose(f);
  return Status::OK();
}

Status ChecksumPageManager::SyncSidecar() {
  if (sidecar_path_.empty()) return Status::OK();
  std::FILE* f = std::fopen(sidecar_path_.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("open sidecar for write: " + sidecar_path_);
  }
  uint64_t count = sums_.size();
  bool ok = std::fwrite(kSidecarMagic, 1, 4, f) == 4 &&
            std::fwrite(&kSidecarVersion, sizeof(kSidecarVersion), 1, f) == 1 &&
            std::fwrite(&count, sizeof(count), 1, f) == 1 &&
            (count == 0 ||
             std::fwrite(sums_.data(), sizeof(uint32_t), count, f) == count);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::IoError("write sidecar: " + sidecar_path_);
  return Status::OK();
}

}  // namespace pcube
