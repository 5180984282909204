#include "core/bloom_store.h"

#include <algorithm>

#include "common/bit_util.h"

namespace pcube {

Status BloomStore::Put(CellId cell, const Signature& sig, double bits_per_key) {
  // Every set bit names the child node (or tuple) under its slot.
  const uint64_t base = sig.fanout() + 1;
  std::vector<uint64_t> sids;
  for (const auto& [sid, bits] : sig.nodes()) {
    for (size_t bit = bits.FindNextSet(0); bit < bits.size();
         bit = bits.FindNextSet(bit + 1)) {
      sids.push_back(sid * base + bit + 1);
    }
  }
  if (sids.empty()) return Status::OK();
  BloomFilter filter(sids.size(), bits_per_key);
  for (uint64_t sid : sids) filter.Add(sid);
  std::vector<uint8_t> bytes = filter.Serialize();

  // Rewrite the cell's pages in place; only a larger filter takes new ones
  // (a smaller one keeps its spare pages for later growth).
  std::vector<PageId>& pages = blobs_[cell];
  const size_t needed = bit_util::CeilDiv(bytes.size(), kPageSize);
  while (pages.size() < needed) {
    PageId pid;
    auto handle = pool_->New(IoCategory::kSignature, &pid);
    if (!handle.ok()) return handle.status();
    pages.push_back(pid);
    ++num_pages_;
  }
  for (size_t i = 0; i < needed; ++i) {
    auto handle = pool_->GetMutable(pages[i], IoCategory::kSignature);
    if (!handle.ok()) return handle.status();
    const size_t off = i * kPageSize;
    const size_t n = std::min(kPageSize, bytes.size() - off);
    std::copy(bytes.begin() + off, bytes.begin() + off + n,
              (*handle)->data());
  }
  blob_sizes_[cell] = static_cast<uint32_t>(bytes.size());
  return Status::OK();
}

Result<BloomFilter> BloomStore::Load(CellId cell, uint64_t* pages_read) const {
  auto it = blobs_.find(cell);
  if (it == blobs_.end()) return Status::NotFound("cell has no bloom filter");
  uint32_t size = blob_sizes_.at(cell);
  std::vector<uint8_t> bytes;
  bytes.reserve(size);
  // A filter that shrank leaves spare pages behind it: read only its own.
  for (size_t i = 0; bytes.size() < size; ++i) {
    auto handle = pool_->Get(it->second[i], IoCategory::kSignature);
    if (!handle.ok()) return handle.status();
    size_t n = std::min(kPageSize, static_cast<size_t>(size) - bytes.size());
    bytes.insert(bytes.end(), (*handle)->data(), (*handle)->data() + n);
    if (pages_read != nullptr) ++*pages_read;
  }
  return BloomFilter::Deserialize(bytes);
}

}  // namespace pcube
