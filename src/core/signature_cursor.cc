#include "core/signature_cursor.h"

#include <array>

namespace pcube {

Status SignatureCursor::LoadPartialAt(uint64_t sid) {
  if (!attempted_.insert(sid).second) return Status::OK();
  if (cache_ != nullptr) {
    if (auto hit = cache_->Lookup(cell_, sid)) {
      // Replay the cached decode. The contributed node set is a pure
      // function of (cell, sid) because every cursor loads partials along
      // root-to-leaf prefixes in the same order, so insertion is exact.
      for (size_t i = 0; i < hit->num_nodes(); ++i) {
        // no-op if an ancestor partial already supplied the node
        loaded_.AddNode(hit->sid(i), hit->NodeBits(i));
      }
      return Status::OK();
    }
  }
  // Read the epoch stamp BEFORE the store access: a concurrent update can
  // then only make the entry look stale at lookup, never wrongly fresh.
  uint64_t stamp =
      cache_ != nullptr ? cache_->epoch()->OfCell(cell_) : 0;
  auto bytes = store_->LoadPartial(cell_, sid);
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) {
      // Negative entry: the probing rule touches many absent SIDs.
      if (cache_ != nullptr) cache_->Insert(cell_, sid, false, {}, stamp);
      return Status::OK();
    }
    return bytes.status();
  }
  ++partials_loaded_;
  std::vector<std::pair<uint64_t, BitVector>> added;
  PCUBE_RETURN_NOT_OK(DecodePartialSignature(
      sid, *bytes, &loaded_, cache_ != nullptr ? &added : nullptr));
  if (cache_ != nullptr) {
    cache_->Insert(cell_, sid, true, std::move(added), stamp);
  }
  return Status::OK();
}

Result<bool> SignatureCursor::EnsureNode(uint64_t sid,
                                         const uint64_t* prefix_sids,
                                         size_t depth) {
  if (!root_loaded_) {
    root_loaded_ = true;
    PCUBE_RETURN_NOT_OK(LoadPartialAt(0));
  }
  if (loaded_.Node(sid) != nullptr) return true;
  // Probe partials rooted at successively deeper prefixes of the path.
  for (size_t i = 0; i < depth; ++i) {
    PCUBE_RETURN_NOT_OK(LoadPartialAt(prefix_sids[i]));
    if (loaded_.Node(sid) != nullptr) return true;
  }
  return false;
}

Result<bool> SignatureCursor::Test(const Path& path) {
  PCUBE_DCHECK_GE(path.size(), size_t{1});
  PCUBE_DCHECK_LE(path.size(), static_cast<size_t>(loaded_.levels()));
  const uint32_t m = loaded_.fanout();
  // prefix_sids[i] is the SID of the path's first i+1 slots, derived one
  // level at a time: sid(p + slot) = sid(p) * (M+1) + slot.
  std::array<uint64_t, Path::kMaxLength> prefix_sids;
  uint64_t sid = 0;  // node whose array we are inspecting (root first)
  for (size_t i = 0; i < path.size(); ++i) {
    const BitVector* bits = loaded_.Node(sid);
    if (bits == nullptr) {
      auto present = EnsureNode(sid, prefix_sids.data(), i);
      if (!present.ok()) return present.status();
      if (!*present) return false;
      bits = loaded_.Node(sid);
    }
    const uint16_t slot = path[i];
    if (slot < 1 || slot > m || !bits->Get(slot - 1)) return false;
    sid = sid * (m + 1) + slot;
    prefix_sids[i] = sid;
  }
  return true;
}

}  // namespace pcube
