#include "core/signature_store.h"

#include <algorithm>
#include <set>

#include "common/bit_util.h"

namespace pcube {

namespace {

// Directory value layout: page id (38 bits) | offset (13 bits) | len (13 bits).
constexpr int kLenBits = 13;
constexpr int kOffBits = 13;
constexpr uint64_t kLenMask = (uint64_t{1} << kLenBits) - 1;
constexpr uint64_t kOffMask = (uint64_t{1} << kOffBits) - 1;

uint64_t PackLocation(PageId pid, uint32_t offset, uint32_t len) {
  PCUBE_DCHECK_LE(offset, kPageSize);
  PCUBE_DCHECK_LE(len, kPageSize);
  return (static_cast<uint64_t>(pid) << (kOffBits + kLenBits)) |
         (static_cast<uint64_t>(offset) << kLenBits) | len;
}

void UnpackLocation(uint64_t value, PageId* pid, uint32_t* offset,
                    uint32_t* len) {
  *len = static_cast<uint32_t>(value & kLenMask);
  *offset = static_cast<uint32_t>((value >> kLenBits) & kOffMask);
  *pid = static_cast<PageId>(value >> (kOffBits + kLenBits));
}

/// The slot of a location: its page and offset, whatever its length.
uint64_t SlotOf(uint64_t location) { return location & ~kLenMask; }

/// Sentinel directory value for a deleted partial.
constexpr uint64_t kTombstone = ~uint64_t{0};

}  // namespace

Result<SignatureStore> SignatureStore::Create(BufferPool* pool) {
  auto tree = BPlusTree::Create(pool, IoCategory::kBtree);
  if (!tree.ok()) return tree.status();
  return SignatureStore(std::move(*tree), pool);
}

uint64_t SignatureStore::MakeKey(uint32_t dense_cell, uint64_t sid) {
  PCUBE_CHECK_LE(sid, kMaxSid) << "SID exceeds key budget";
  return (static_cast<uint64_t>(dense_cell) << kSidBits) | sid;
}

Result<uint32_t> SignatureStore::DenseId(CellId cell) const {
  auto it = dense_.find(cell);
  if (it == dense_.end()) return Status::NotFound("cell never stored");
  return it->second;
}

uint32_t SignatureStore::InternCell(CellId cell) {
  auto it = dense_.find(cell);
  if (it != dense_.end()) return it->second;
  uint32_t id = next_dense_++;
  dense_.emplace(cell, id);
  return id;
}

Result<uint64_t> SignatureStore::AppendBlob(const std::vector<uint8_t>& bytes,
                                            uint32_t room) {
  // Partials are packed into shared pages ("the data summarization is much
  // cheaper in storage cost", §IV.A): open a fresh page only when the
  // current one cannot hold the blob.
  if (append_page_ == kInvalidPageId ||
      append_offset_ + bytes.size() > kPageSize) {
    auto handle = pool_->New(IoCategory::kSignature, &append_page_);
    if (!handle.ok()) return handle.status();
    append_offset_ = 0;
    ++num_pages_;
  }
  auto handle = pool_->GetMutable(append_page_, IoCategory::kSignature);
  if (!handle.ok()) return handle.status();
  std::copy(bytes.begin(), bytes.end(), (*handle)->data() + append_offset_);
  const uint64_t loc = PackLocation(append_page_, append_offset_,
                                    static_cast<uint32_t>(bytes.size()));
  append_offset_ = static_cast<uint32_t>(
      std::min(append_offset_ + bytes.size() + room, kPageSize));
  page_end_[append_page_] = append_offset_;
  if (room > 0) slot_end_[SlotOf(loc)] = append_offset_;
  return loc;
}

Status SignatureStore::Put(CellId cell, const Signature& sig) {
  uint32_t dense = InternCell(cell);
  std::vector<PartialSignature> partials = DecomposeSignature(sig, kMaxPayload);

  // Existing partial locations for this cell, for in-place overwrites.
  std::map<uint64_t, uint64_t> old_locs;  // sid -> packed location
  PCUBE_RETURN_NOT_OK(index_.RangeScan(
      MakeKey(dense, 0), MakeKey(dense, kMaxSid),
      [&](uint64_t key, uint64_t value) {
        if (value != kTombstone) old_locs.emplace(key & kMaxSid, value);
        return true;
      }));

  std::set<uint64_t> new_sids;
  for (const PartialSignature& p : partials) {
    new_sids.insert(p.root_sid);
    PCUBE_CHECK_LE(p.bytes.size(), kMaxPayload);
    const uint32_t size = static_cast<uint32_t>(p.bytes.size());
    uint32_t room = 0;
    auto it = old_locs.find(p.root_sid);
    if (it != old_locs.end()) {
      PageId pid;
      uint32_t offset, len;
      UnpackLocation(it->second, &pid, &offset, &len);
      // The slot owns its bytes and any it holds past them (growth room a
      // move gave it, or what an earlier version filled); when it also
      // ends its page's blobs, no partial owns the page's tail.
      auto slot_end = slot_end_.find(SlotOf(it->second));
      const uint32_t end =
          slot_end != slot_end_.end() ? slot_end->second : offset + len;
      auto page_end = page_end_.find(pid);
      const bool last_on_page =
          page_end != page_end_.end() && page_end->second == end;
      if (offset + size <= (last_on_page ? kPageSize : end)) {
        // Overwrite in place; a size change updates the directory length.
        if (offset + size > end) {
          page_end->second = offset + size;
          if (pid == append_page_) append_offset_ = page_end->second;
          if (slot_end != slot_end_.end()) slot_end->second = offset + size;
        } else if (size < len && slot_end == slot_end_.end()) {
          slot_end_.emplace(SlotOf(it->second), end);  // keep it for regrowth
        }
        auto handle = pool_->GetMutable(pid, IoCategory::kSignature);
        if (!handle.ok()) return handle.status();
        std::copy(p.bytes.begin(), p.bytes.end(), (*handle)->data() + offset);
        if (size != len) {
          PCUBE_RETURN_NOT_OK(index_.Insert(MakeKey(dense, p.root_sid),
                                            PackLocation(pid, offset, size)));
        }
        continue;
      }
      // Outgrown its slot: the old bytes leak (nothing reuses them); move
      // it with room to grow in place from now on.
      if (slot_end != slot_end_.end()) slot_end_.erase(slot_end);
      room = kGrowthRoom;
      --num_partials_;
    }
    auto loc = AppendBlob(p.bytes, room);
    if (!loc.ok()) return loc.status();
    ++num_partials_;
    PCUBE_RETURN_NOT_OK(index_.Insert(MakeKey(dense, p.root_sid), *loc));
  }

  // Tombstone partials that no longer exist.
  for (const auto& [sid, loc] : old_locs) {
    if (new_sids.count(sid) == 0) {
      PCUBE_RETURN_NOT_OK(index_.Insert(MakeKey(dense, sid), kTombstone));
      slot_end_.erase(SlotOf(loc));
      --num_partials_;
    }
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> SignatureStore::LoadPartial(CellId cell,
                                                         uint64_t sid) const {
  auto dense = DenseId(cell);
  if (!dense.ok()) return Status::NotFound("cell has no signature");
  auto value = index_.Get(MakeKey(*dense, sid));
  if (!value.ok()) return value.status();
  if (*value == kTombstone) return Status::NotFound("partial tombstoned");
  PageId pid;
  uint32_t offset, len;
  UnpackLocation(*value, &pid, &offset, &len);
  if (offset + len > kPageSize) return Status::Corruption("partial location");
  auto handle = pool_->Get(pid, IoCategory::kSignature);
  if (!handle.ok()) return handle.status();
  const uint8_t* base = (*handle)->data() + offset;
  return std::vector<uint8_t>(base, base + len);
}

Result<std::vector<uint64_t>> SignatureStore::ListPartials(CellId cell) const {
  auto dense = DenseId(cell);
  if (!dense.ok()) return std::vector<uint64_t>{};
  std::vector<uint64_t> sids;
  PCUBE_RETURN_NOT_OK(index_.RangeScan(
      MakeKey(*dense, 0), MakeKey(*dense, kMaxSid),
      [&](uint64_t key, uint64_t value) {
        if (value != kTombstone) sids.push_back(key & kMaxSid);
        return true;
      }));
  return sids;
}

Result<std::vector<PageId>> SignatureStore::DataPages() const {
  std::set<PageId> pages;
  PCUBE_RETURN_NOT_OK(
      index_.RangeScan(0, ~uint64_t{0}, [&](uint64_t, uint64_t value) {
        if (value != kTombstone) {
          PageId pid;
          uint32_t offset, len;
          UnpackLocation(value, &pid, &offset, &len);
          pages.insert(pid);
        }
        return true;
      }));
  return std::vector<PageId>(pages.begin(), pages.end());
}

Result<Signature> SignatureStore::LoadFull(CellId cell, uint32_t fanout,
                                           int levels) const {
  auto sids = ListPartials(cell);
  if (!sids.ok()) return sids.status();
  Signature sig(fanout, levels);
  // Ascending SID order == generation (BFS) order, so skip sets line up.
  for (uint64_t sid : *sids) {
    auto bytes = LoadPartial(cell, sid);
    if (!bytes.ok()) return bytes.status();
    PCUBE_RETURN_NOT_OK(DecodePartialSignature(sid, *bytes, &sig));
  }
  return sig;
}

Result<bool> SignatureStore::HasCell(CellId cell) const {
  auto sids = ListPartials(cell);
  if (!sids.ok()) return sids.status();
  return !sids->empty();
}

}  // namespace pcube
