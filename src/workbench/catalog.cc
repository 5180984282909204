#include "workbench/catalog.h"

#include <set>

#include "common/bit_util.h"
#include "rtree/path.h"

namespace pcube {

namespace {

class Writer {
 public:
  void U32(uint32_t v) {
    size_t p = buf_.size();
    buf_.resize(p + 4);
    bit_util::StoreLE<uint32_t>(buf_.data() + p, v);
  }
  void U64(uint64_t v) {
    size_t p = buf_.size();
    buf_.resize(p + 8);
    bit_util::StoreLE<uint64_t>(buf_.data() + p, v);
  }
  void Bytes(const std::string& s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  Result<uint32_t> U32() {
    if (pos_ + 4 > buf_.size()) return Status::Corruption("catalog truncated");
    uint32_t v = bit_util::LoadLE<uint32_t>(buf_.data() + pos_);
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (pos_ + 8 > buf_.size()) return Status::Corruption("catalog truncated");
    uint64_t v = bit_util::LoadLE<uint64_t>(buf_.data() + pos_);
    pos_ += 8;
    return v;
  }
  Result<std::string> Bytes(size_t n) {
    if (pos_ + n > buf_.size()) return Status::Corruption("catalog truncated");
    std::string s(buf_.begin() + pos_, buf_.begin() + pos_ + n);
    pos_ += n;
    return s;
  }
  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

constexpr size_t kChunk = kPageSize - 12;  // u32 len + u64 next

}  // namespace

Status SaveCatalog(BufferPool* pool, PageId root, const CatalogData& c) {
  Writer w;
  w.U32(CatalogData::kMagic);
  w.U32(CatalogData::kVersion);
  w.U32(static_cast<uint32_t>(c.num_bool));
  w.U32(static_cast<uint32_t>(c.num_pref));
  for (uint32_t card : c.bool_cardinality) w.U32(card);
  w.U64(c.num_tuples);
  w.U64(c.table_pages.size());
  for (PageId pid : c.table_pages) w.U64(pid);
  w.U64(c.indices.size());
  for (const auto& idx : c.indices) {
    w.U64(idx.root);
    w.U64(idx.num_entries);
    w.U64(idx.num_pages);
    w.U64(idx.next_seq);
  }
  w.U64(c.rtree_root);
  w.U32(static_cast<uint32_t>(c.rtree_height));
  w.U32(c.rtree_fanout);
  w.U64(c.rtree_entries);
  w.U64(c.rtree_pages);
  w.U32(c.has_cube ? 1 : 0);
  if (c.has_cube) {
    w.U64(c.sig_index_root);
    w.U64(c.sig_index_entries);
    w.U64(c.sig_index_pages);
    w.U64(c.sig_dense.size());
    for (const auto& [cell, dense] : c.sig_dense) {
      w.U64(cell);
      w.U32(dense);
    }
    w.U64(c.sig_num_partials);
    w.U64(c.sig_num_pages);
    w.U64(c.sig_append_page);
    w.U32(c.sig_append_offset);
    w.U64(c.cube_cells);
    w.U32(static_cast<uint32_t>(c.cube_levels));
  }
  w.U32(c.dictionaries.empty() ? 0 : 1);
  if (!c.dictionaries.empty()) {
    w.U64(c.dictionaries.size());
    for (const auto& dict : c.dictionaries) {
      w.U64(dict.size());
      for (const std::string& s : dict) {
        w.U32(static_cast<uint32_t>(s.size()));
        w.Bytes(s);
      }
    }
  }
  w.U64(c.tombstones.size());
  for (TupleId tid : c.tombstones) w.U64(tid);

  // Write the chain.
  const std::vector<uint8_t>& bytes = w.bytes();
  PageId pid = root;
  size_t offset = 0;
  while (true) {
    size_t n = std::min(kChunk, bytes.size() - offset);
    PageId next = kInvalidPageId;
    if (offset + n < bytes.size()) {
      auto handle = pool->New(IoCategory::kBtree, &next);
      if (!handle.ok()) return handle.status();
    }
    auto handle = pool->GetMutable(pid, IoCategory::kBtree);
    if (!handle.ok()) return handle.status();
    Page* page = handle->get();
    bit_util::StoreLE<uint32_t>(page->data(), static_cast<uint32_t>(n));
    bit_util::StoreLE<uint64_t>(page->data() + 4, next);
    std::copy(bytes.begin() + offset, bytes.begin() + offset + n,
              page->data() + 12);
    offset += n;
    if (next == kInvalidPageId) break;
    pid = next;
  }
  return Status::OK();
}

Result<CatalogData> LoadCatalog(BufferPool* pool, PageId root) {
  std::vector<uint8_t> bytes;
  PageId pid = root;
  std::set<PageId> visited;
  while (pid != kInvalidPageId) {
    if (!visited.insert(pid).second) {
      return Status::Corruption("catalog page chain contains a cycle");
    }
    auto handle = pool->Get(pid, IoCategory::kBtree);
    if (!handle.ok()) return handle.status();
    const Page* page = handle->get();
    uint32_t len = bit_util::LoadLE<uint32_t>(page->data());
    if (len > kChunk) return Status::Corruption("catalog chunk length");
    PageId next = bit_util::LoadLE<uint64_t>(page->data() + 4);
    if (next != kInvalidPageId &&
        next >= pool->page_manager()->NumPages()) {
      return Status::Corruption("catalog next pointer out of range");
    }
    bytes.insert(bytes.end(), page->data() + 12, page->data() + 12 + len);
    pid = next;
  }

  Reader r(bytes);
  CatalogData c;
  auto magic = r.U32();
  if (!magic.ok()) return magic.status();
  if (*magic != CatalogData::kMagic) {
    return Status::Corruption("not a P-Cube catalog");
  }
  auto version = r.U32();
  if (!version.ok()) return version.status();
  if (*version != CatalogData::kVersion) {
    return Status::NotSupported("catalog version " + std::to_string(*version));
  }

  // The remaining reads follow the exact write order; propagate the first
  // failure.
#define PCUBE_READ(var, call)          \
  do {                                 \
    auto _r = (call);                  \
    if (!_r.ok()) return _r.status();  \
    var = *_r;                         \
  } while (0)

  // A corrupt or fuzzed catalog can claim absurd element counts. Every
  // count is checked against the bytes actually left in the buffer (using
  // the minimum encoded size of one element) BEFORE any resize, so damage
  // yields Status::Corruption instead of a multi-gigabyte allocation.
#define PCUBE_CHECK_COUNT(n, min_elem_bytes)                      \
  do {                                                            \
    if ((n) > r.remaining() / (min_elem_bytes)) {                 \
      return Status::Corruption("catalog count " + std::to_string(n) + \
                                " exceeds remaining bytes");      \
    }                                                             \
  } while (0)

  uint32_t tmp32;
  uint64_t tmp64;
  PCUBE_READ(tmp32, r.U32());
  PCUBE_CHECK_COUNT(tmp32, 4);
  c.num_bool = static_cast<int>(tmp32);
  PCUBE_READ(tmp32, r.U32());
  PCUBE_CHECK_COUNT(tmp32, 4);
  c.num_pref = static_cast<int>(tmp32);
  c.bool_cardinality.resize(c.num_bool);
  for (int d = 0; d < c.num_bool; ++d) PCUBE_READ(c.bool_cardinality[d], r.U32());
  PCUBE_READ(c.num_tuples, r.U64());
  PCUBE_READ(tmp64, r.U64());
  PCUBE_CHECK_COUNT(tmp64, 8);
  c.table_pages.resize(tmp64);
  for (auto& pid2 : c.table_pages) PCUBE_READ(pid2, r.U64());
  PCUBE_READ(tmp64, r.U64());
  PCUBE_CHECK_COUNT(tmp64, 32);
  c.indices.resize(tmp64);
  for (auto& idx : c.indices) {
    PCUBE_READ(idx.root, r.U64());
    PCUBE_READ(idx.num_entries, r.U64());
    PCUBE_READ(idx.num_pages, r.U64());
    PCUBE_READ(idx.next_seq, r.U64());
  }
  PCUBE_READ(c.rtree_root, r.U64());
  PCUBE_READ(tmp32, r.U32());
  // Every path of the tree must fit a Path (rtree/path.h); a deeper claim
  // is damage, and must fail here rather than at the first descent.
  if (tmp32 >= Path::kMaxLength) {
    return Status::Corruption("catalog R-tree height " +
                              std::to_string(tmp32) + " exceeds the " +
                              std::to_string(Path::kMaxLength) +
                              "-level path limit");
  }
  c.rtree_height = static_cast<int>(tmp32);
  PCUBE_READ(c.rtree_fanout, r.U32());
  PCUBE_READ(c.rtree_entries, r.U64());
  PCUBE_READ(c.rtree_pages, r.U64());
  PCUBE_READ(tmp32, r.U32());
  c.has_cube = tmp32 != 0;
  if (c.has_cube) {
    PCUBE_READ(c.sig_index_root, r.U64());
    PCUBE_READ(c.sig_index_entries, r.U64());
    PCUBE_READ(c.sig_index_pages, r.U64());
    PCUBE_READ(tmp64, r.U64());
    PCUBE_CHECK_COUNT(tmp64, 12);
    for (uint64_t i = 0; i < tmp64; ++i) {
      uint64_t cell;
      uint32_t dense;
      PCUBE_READ(cell, r.U64());
      PCUBE_READ(dense, r.U32());
      c.sig_dense.emplace(cell, dense);
    }
    PCUBE_READ(c.sig_num_partials, r.U64());
    PCUBE_READ(c.sig_num_pages, r.U64());
    PCUBE_READ(c.sig_append_page, r.U64());
    PCUBE_READ(c.sig_append_offset, r.U32());
    PCUBE_READ(c.cube_cells, r.U64());
    PCUBE_READ(tmp32, r.U32());
    c.cube_levels = static_cast<int>(tmp32);
  }
  PCUBE_READ(tmp32, r.U32());
  if (tmp32 != 0) {
    PCUBE_READ(tmp64, r.U64());
    PCUBE_CHECK_COUNT(tmp64, 8);
    c.dictionaries.resize(tmp64);
    for (auto& dict : c.dictionaries) {
      PCUBE_READ(tmp64, r.U64());
      PCUBE_CHECK_COUNT(tmp64, 4);
      dict.resize(tmp64);
      for (auto& s : dict) {
        PCUBE_READ(tmp32, r.U32());
        PCUBE_READ(s, r.Bytes(tmp32));
      }
    }
  }
  // Trailing tombstone list; absent in pre-write-path catalogs.
  if (!r.AtEnd()) {
    PCUBE_READ(tmp64, r.U64());
    PCUBE_CHECK_COUNT(tmp64, 8);
    c.tombstones.resize(tmp64);
    for (auto& tid : c.tombstones) PCUBE_READ(tid, r.U64());
  }
#undef PCUBE_CHECK_COUNT
#undef PCUBE_READ
  return c;
}

}  // namespace pcube
