#include "storage/checksum.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "common/metrics.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// Advances the CRC register `c` (not inverted) over `n` bytes,
/// slicing-by-8.
uint32_t SliceBy8(uint32_t c, const uint8_t* p, size_t n) {
  static const CrcTables kT = MakeCrcTables();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kT[7][lo & 0xFF] ^ kT[6][(lo >> 8) & 0xFF] ^
        kT[5][(lo >> 16) & 0xFF] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFF] ^
        kT[2][(hi >> 8) & 0xFF] ^ kT[1][(hi >> 16) & 0xFF] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kT[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)

__m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `x` forward by the distance the constant pair `k` encodes, onto
/// the next 128 bits of input `next`.
__attribute__((target("pclmul"))) __m128i Fold128(__m128i x, __m128i k,
                                                  __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Advances the CRC register `c` over `n` bytes, n >= 64 and a multiple of
/// 16, by carry-less multiplication (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009): four
/// 128-bit lanes fold 64 bytes per step, fold into one lane, fold the
/// remaining 16-byte blocks, then reduce 128 -> 64 -> 32 bits with a
/// Barrett step. The constants are x^k mod P(x) for the bit-reflected
/// polynomial; they are the ones the paper derives for CRC-32 (IEEE).
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldClmul(
    uint32_t c, const uint8_t* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold128(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // __x86_64__

}  // namespace

bool CpuHasPclmul() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") > 0 &&
         __builtin_cpu_supports("sse4.1") > 0;
#else
  return false;
#endif
}

uint32_t Crc32Scalar(const void* data, size_t n) {
  return SliceBy8(0xFFFFFFFFu, static_cast<const uint8_t*>(data), n) ^
         0xFFFFFFFFu;
}

#if defined(__x86_64__)
uint32_t Crc32Clmul(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = FoldClmul(c, p, folded);
    p += folded;
    n -= folded;
  }
  return SliceBy8(c, p, n) ^ 0xFFFFFFFFu;
}
#endif

uint32_t Crc32(const void* data, size_t n) {
#if defined(__x86_64__)
  static const bool kClmul = CpuHasPclmul();
  if (kClmul) return Crc32Clmul(data, n);
#endif
  return Crc32Scalar(data, n);
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
