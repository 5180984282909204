// Page-backed store for the Bloom-filter signature variant (paper §VII):
// per cell, one Bloom filter over the SIDs of all present nodes/tuples.
// Loading a cell's filter reads its pages (charged as signature I/O).
#pragma once

#include <map>
#include <vector>

#include "bitmap/bloom_filter.h"
#include "common/status.h"
#include "core/signature.h"
#include "cube/cell.h"
#include "storage/buffer_pool.h"

namespace pcube {

/// Stores serialized Bloom filters, one per cell, across pages.
class BloomStore {
 public:
  explicit BloomStore(BufferPool* pool) : pool_(pool) {}

  /// Builds and stores the filter for `cell` from a signature: every set bit
  /// contributes the SID of the path it addresses. A rewrite reuses the
  /// cell's pages and allocates only the extra ones a larger filter needs.
  Status Put(CellId cell, const Signature& sig, double bits_per_key);

  /// Loads a cell's filter; reads ceil(size/page) pages. NotFound when the
  /// cell has none (empty cells store nothing).
  Result<BloomFilter> Load(CellId cell, uint64_t* pages_read) const;

  uint64_t num_pages() const { return num_pages_; }

 private:
  BufferPool* pool_;
  /// Pages owned by each cell's filter; the first ceil(size/page) hold it.
  std::map<CellId, std::vector<PageId>> blobs_;
  std::map<CellId, uint32_t> blob_sizes_;
  uint64_t num_pages_ = 0;
};

}  // namespace pcube
